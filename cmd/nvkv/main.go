// Command nvkv runs the network-facing persistent KV service.
//
//	nvkv serve -addr :7070 -heap kv.heap -size 256M
//	    Serve the RESP-like protocol from an NVAlloc heap on a direct
//	    (real-concurrency) device. With -heap the device is an mmap'd
//	    file: acknowledged writes survive kill -9, and a restart
//	    recovers the store from the file. Without -heap the heap lives
//	    in anonymous memory (throwaway).
//
// Load, latency and the kill -9 drill live in benchmark/ (run.sh), which
// execs this binary and reads its start-up banner.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
)

const rootSlot = 0

func main() {
	if len(os.Args) < 2 || os.Args[1] != "serve" {
		fmt.Fprintf(os.Stderr, "usage: nvkv serve [flags]\n")
		os.Exit(2)
	}
	cmdServe(os.Args[2:])
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvkv: "+format+"\n", args...)
	os.Exit(1)
}

// parseSize accepts 123, 64K, 16M, 1G.
func parseSize(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n * mult, err
}

// openOrCreate attaches a store to a direct device: a heap file that
// already held a heap is recovered (core.Open), anything else is
// formatted fresh. It reports the recovery wall time for reopens, after
// printing what the heap's recovery did.
func openOrCreate(path string, size uint64) (alloc.Heap, *nvkv.Store, time.Duration, error) {
	existed := false
	if path != "" {
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			existed = true
		}
	}
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: size, Path: path})
	if err != nil {
		return nil, nil, 0, err
	}
	if existed {
		start := time.Now()
		h, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("recover heap %s: %w", path, err)
		}
		st, err := nvkv.OpenStore(h, rootSlot, nvkv.StoreConfig{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("recover store: %w", err)
		}
		took := time.Since(start)
		// Not "recovered": that word starts the line harnesses parse.
		fmt.Printf("nvkv: heap open: %v\n", h.Recovery())
		return h, st, took, nil
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		return nil, nil, 0, err
	}
	th := h.NewThread()
	st, err := nvkv.CreateStore(h, th, rootSlot, nvkv.StoreConfig{})
	th.Close()
	if err != nil {
		return nil, nil, 0, err
	}
	return h, st, 0, nil
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	heapPath := fs.String("heap", "", "heap file (mmap'd; empty = anonymous memory)")
	sizeStr := fs.String("size", "256M", "device size")
	snapshot := fs.String("snapshot", "", "enable SNAPSHOT, writing the image here")
	fs.Parse(args)
	size, err := parseSize(*sizeStr)
	if err != nil {
		fatalf("bad -size: %v", err)
	}

	_, store, recovery, err := openOrCreate(*heapPath, size)
	if err != nil {
		fatalf("%v", err)
	}
	if recovery > 0 {
		fmt.Printf("nvkv: recovered %d keys in %dns\n", store.Len(), recovery.Nanoseconds())
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	srv := nvkv.NewServer(store, nvkv.ServerConfig{SnapshotPath: *snapshot})
	// benchmark/server.go execs this binary and parses two banner lines:
	// it cuts "nvkv: recovered N keys in Mns" on "recovered " and
	// " keys in ", and this line on "listening on " for the chosen port.
	// Keep both byte-stable.
	fmt.Printf("nvkv: listening on %s\n", l.Addr())
	os.Stdout.Sync()
	if err := srv.Serve(l); err != nil {
		fatalf("serve: %v", err)
	}
}
