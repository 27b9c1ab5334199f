package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
)

// TestHeapFileLeftByKill9 points nvstat at what kill -9 leaves of an
// `nvkv serve` heap file on a page-cache mmap: a file-backed direct
// device holding a store whose heap, thread and store were never closed.
// The open must go through crash recovery, list exactly the store, and
// -check must find nothing to repair.
func TestHeapFileLeftByKill9(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvkv.heap")
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	st, err := nvkv.CreateStore(h, th, 0, nvkv.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const sets, dels = 400, 60
	for i := 0; i < sets; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 24+i%700)
		if err := st.Set(th, 0, []byte(fmt.Sprintf("key-%d", i)), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dels; i++ {
		if ok, err := st.Del(th, []byte(fmt.Sprintf("key-%d", i*3))); !ok || err != nil {
			t.Fatalf("del %d: %v %v", i*3, ok, err)
		}
	}
	// The process dies here: no th.Close, no h.Close. Unmapping is what
	// the kernel does for it, and leaves the file as the page cache had it.
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-heap", path}, &out, &errb); code != 0 {
		t.Fatalf("nvstat -heap: exit %d, stderr %q", code, errb.String())
	}
	var recovery string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "recovery:") {
			recovery = line
		}
	}
	if !strings.Contains(recovery, "crashed=true") {
		t.Errorf("recovery line %q does not report crashed=true", recovery)
	}
	// Beside one record per key the heap holds the index header and the
	// directory extent: Set and Del leave nothing unreachable behind.
	for _, want := range []string{
		fmt.Sprintf("nvkv store:       %d keys\n", sets-dels),
		fmt.Sprintf("live objects:     %d (1 large)", sets-dels+2),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("nvstat -heap output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"-heap", path, "-check"}, &out, &errb); code != 0 {
		t.Fatalf("nvstat -heap -check: exit %d\n%s%s", code, out.String(), errb.String())
	}
}

// TestMetadataLine: nvstat reports an image's metadata in service against
// what its regions reserve: the superblock, the rings that were appended
// to (one thread, one of four) and the log up to its break; and its used
// line splits the free extents into dirty and retained space.
func TestMetadataLine(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	opts := core.DefaultOptions(core.LOG)
	opts.Arenas = 4
	h, err := core.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	for i := 0; i < 100; i++ {
		if _, err := th.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "heap.img")
	if err := dev.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-image", path}, &out, &errb); code != 0 {
		t.Fatalf("nvstat -image: exit %d, stderr %q", code, errb.String())
	}
	want := "metadata:         41.4 KiB in service of 393.2 KiB reserved: superblock 8.0 KiB, WAL rings 1 of 4 in service (32.3 KiB each), bookkeeping log 1.1 of 256.0 KiB to its break\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("nvstat output lacks %q:\n%s", want, out.String())
	}
	// The one 64 KiB slab heads the one chunk the heap grew; the rest of
	// it is a gap, which a rebuild keeps as retained space.
	want = "lease overhead 0.0 MiB); free extents 0.0 MiB dirty (in used), 3.9 MiB retained\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("nvstat output lacks %q:\n%s", want, out.String())
	}
}
