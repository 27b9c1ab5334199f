// Command nvkv runs the network-facing persistent KV service and its
// load tooling.
//
//	nvkv serve -addr :7070 -heap kv.heap -size 256M
//	    Serve the RESP-like protocol from an NVAlloc heap on a direct
//	    (real-concurrency) device. With -heap the device is an mmap'd
//	    file: acknowledged writes survive kill -9, and a restart
//	    recovers the store from the file. Without -heap the heap lives
//	    in anonymous memory (throwaway).
//
//	nvkv bench -addr 127.0.0.1:7070 -users 1000000
//	    Drive the synthetic traffic engine (zipfian keys, per-user
//	    sessions, burst phases) and report per-op latency percentiles.
//
//	nvkv smoke -users 1000000 -out nvkv_smoke.json
//	    The self-contained crash drill: spawn a serve child on a heap
//	    file, push traffic, kill -9 mid-burst, restart, measure
//	    recovery time, and verify the acknowledged-durability oracle
//	    over every settled key. Exits non-zero on any lost or
//	    resurrected acknowledgement.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

const rootSlot = 0

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		cmdServe(os.Args[2:])
	case "bench":
		cmdBench(os.Args[2:])
	case "smoke":
		cmdSmoke(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: nvkv serve|bench|smoke [flags]\n")
	os.Exit(2)
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
	// The parent (smoke) parses this line for the chosen port; keep the
	// format stable.
	fmt.Printf("nvkv: listening on %s\n", l.Addr())
	os.Stdout.Sync()
	if err := srv.Serve(l); err != nil {
		fatalf("serve: %v", err)
	}
}

// latencies flattens a histogram for reports.
func latencies(h *traffic.Hist) map[string]any {
	return map[string]any{
		"count":   h.Count(),
		"mean_ns": uint64(h.Mean()),
		"p50_ns":  h.P50(),
		"p99_ns":  h.P99(),
		"p999_ns": h.P999(),
		"max_ns":  h.Max(),
	}
}

func printReport(rep *traffic.Report, elapsed time.Duration) {
	fmt.Printf("sessions %d  ops %d  (%.0f ops/s)  disconnects %d  errors %d\n",
		rep.Sessions, rep.Ops, float64(rep.Ops)/elapsed.Seconds(), rep.Disconnects, rep.Errors)
	names := []string{"GET", "SET", "DEL", "EXPIRE"}
	for k, name := range names {
		h := &rep.PerOp[k]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("%-7s n=%-9d p50=%-8s p99=%-8s p999=%-8s max=%s\n",
			name, h.Count(),
			time.Duration(h.P50()), time.Duration(h.P99()),
			time.Duration(h.P999()), time.Duration(h.Max()))
	}
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	users := fs.Uint64("users", 1_000_000, "simulated user sessions")
	conns := fs.Int("conns", 8, "connections")
	pipeline := fs.Int("pipeline", 128, "commands in flight per connection")
	keys := fs.Uint64("keys", 1<<16, "key universe")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("out", "", "write a JSON report here")
	fs.Parse(args)

	eng := traffic.New(traffic.Config{
		Addr: *addr, Conns: *conns, Pipeline: *pipeline,
		Users: *users, Keys: *keys, Seed: *seed,
	})
	start := time.Now()
	rep, err := eng.Run()
	elapsed := time.Since(start)
	if err != nil {
		fatalf("bench: %v", err)
	}
	printReport(rep, elapsed)
	if *out != "" {
		writeJSON(*out, benchJSON(rep, elapsed, nil))
	}
}

func benchJSON(rep *traffic.Report, elapsed time.Duration, extra map[string]any) map[string]any {
	out := map[string]any{
		"sessions":    rep.Sessions,
		"ops":         rep.Ops,
		"elapsed_ns":  elapsed.Nanoseconds(),
		"ops_per_sec": float64(rep.Ops) / elapsed.Seconds(),
		"disconnects": rep.Disconnects,
		"errors":      rep.Errors,
		"all":         latencies(&rep.All),
		"get":         latencies(&rep.PerOp[traffic.OpGet]),
		"set":         latencies(&rep.PerOp[traffic.OpSet]),
		"del":         latencies(&rep.PerOp[traffic.OpDel]),
		"expire":      latencies(&rep.PerOp[traffic.OpExpire]),
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

// child is one spawned serve process.
type child struct {
	cmd  *exec.Cmd
	addr string
	// recoveryNS is parsed from the child's startup banner (0 on fresh
	// creation).
	recoveryNS int64
	// ready is the exec-to-listening wall time.
	ready time.Duration
}

// spawnServe starts `nvkv serve` and waits for its listening banner.
func spawnServe(self, addr, heap, size string) (*child, error) {
	cmd := exec.Command(self, "serve", "-addr", addr, "-heap", heap, "-size", size)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Printf("  [serve] %s\n", line)
		if _, rest, ok := strings.Cut(line, "recovered "); ok {
			if _, ns, ok := strings.Cut(rest, " in "); ok {
				c.recoveryNS, _ = strconv.ParseInt(strings.TrimSuffix(ns, "ns"), 10, 64)
			}
		}
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			c.addr = rest
			c.ready = time.Since(start)
			// Leave the rest of the child's stdout unread; it prints
			// nothing further during normal serving.
			go func() {
				for sc.Scan() {
				}
			}()
			return c, nil
		}
	}
	cmd.Wait()
	return nil, fmt.Errorf("serve child exited before listening")
}

func (c *child) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Signal(syscall.SIGKILL)
		c.cmd.Wait()
	}
}

func cmdSmoke(args []string) {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	users := fs.Uint64("users", 1_000_000, "simulated user sessions")
	conns := fs.Int("conns", 8, "connections")
	pipeline := fs.Int("pipeline", 128, "commands in flight per connection")
	keys := fs.Uint64("keys", 1<<16, "key universe")
	seed := fs.Uint64("seed", 1, "workload seed")
	sizeStr := fs.String("size", "512M", "heap device size")
	killFrac := fs.Float64("kill-at", 0.45, "kill -9 the server at this fraction of sessions")
	killAfter := fs.Duration("kill-after", 10*time.Second, "kill deadline if the fraction is not reached")
	dir := fs.String("dir", "", "working directory (default: a temp dir)")
	out := fs.String("out", "nvkv_smoke.json", "JSON report path")
	fs.Parse(args)

	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "nvkv-smoke-*")
		if err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(workDir)
	}
	heapFile := filepath.Join(workDir, "nvkv.heap")

	fmt.Printf("nvkv smoke: %d sessions, kill -9 at %.0f%% (or %s), heap %s\n",
		*users, *killFrac*100, *killAfter, heapFile)

	// Phase 1: fresh server on an auto-picked port.
	srv, err := spawnServe(self, "127.0.0.1:0", heapFile, *sizeStr)
	if err != nil {
		fatalf("spawn: %v", err)
	}
	defer srv.kill()

	eng := traffic.New(traffic.Config{
		Addr: srv.addr, Conns: *conns, Pipeline: *pipeline,
		Users: *users, Keys: *keys, Seed: *seed, TrackAcks: true,
	})
	engDone := make(chan struct{})
	var rep *traffic.Report
	var engErr error
	start := time.Now()
	go func() {
		rep, engErr = eng.Run()
		close(engDone)
	}()

	// Phase 2: kill -9 mid-burst.
	killTarget := uint64(float64(*users) * *killFrac)
	deadline := time.After(*killAfter)
wait:
	for {
		select {
		case <-engDone:
			fatalf("traffic finished before the kill point — raise -users or -kill-at")
		case <-deadline:
			break wait
		case <-time.After(20 * time.Millisecond):
			if eng.Sessions() >= killTarget {
				break wait
			}
		}
	}
	killedAt := eng.Sessions()
	fmt.Printf("nvkv smoke: kill -9 at %d sessions, %d ops acked\n", killedAt, eng.Ops())
	srv.kill()

	// Phase 3: restart on the same port; traffic workers are redialing.
	restart, err := spawnServe(self, srv.addr, heapFile, *sizeStr)
	if err != nil {
		fatalf("restart: %v", err)
	}
	defer restart.kill()
	fmt.Printf("nvkv smoke: restarted in %s (in-process recovery %s)\n",
		restart.ready, time.Duration(restart.recoveryNS))

	<-engDone
	elapsed := time.Since(start)
	if engErr != nil {
		fatalf("traffic: %v", engErr)
	}
	printReport(rep, elapsed)

	// Phase 4: the durability oracle over every settled key.
	conn, err := net.Dial("tcp", restart.addr)
	if err != nil {
		fatalf("oracle dial: %v", err)
	}
	checked, skipped, err := traffic.VerifyAcked(conn, rep.Acked, rep.Tainted)
	conn.Close()
	if err != nil {
		fatalf("DURABILITY VIOLATION: %v", err)
	}
	fmt.Printf("nvkv smoke: oracle OK — %d keys verified, %d skipped (in-flight at kill or TTL'd), %d tainted\n",
		checked, skipped, len(rep.Tainted))

	writeJSON(*out, benchJSON(rep, elapsed, map[string]any{
		"killed_at_sessions": killedAt,
		"restart_ns":         restart.ready.Nanoseconds(),
		"recovery_ns":        restart.recoveryNS,
		"oracle_checked":     checked,
		"oracle_skipped":     skipped,
		"oracle_tainted":     len(rep.Tainted),
	}))
	fmt.Printf("nvkv smoke: report written to %s\n", *out)
}
