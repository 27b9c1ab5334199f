package main

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/fptree"
	"nvalloc/internal/pmem"
)

// TestKVStoreModeEquivalence promotes the kvstore example to a tier-1
// differential test: the identical FPTree workload runs on both
// execution modes — the simulated device (through a crash and WAL-replay
// recovery) and the direct device (through a plain reopen) — and the
// final key/value states must match each other and the in-memory model
// exactly. A divergence means device mode leaked into tree or allocator
// behaviour, or recovery dropped committed state.
func TestKVStoreModeEquivalence(t *testing.T) {
	n := uint64(20000)
	if testing.Short() {
		n = 4000
	}

	model := make(map[uint64]uint64)
	for k := uint64(0); k < n; k++ {
		if k%3 != 0 {
			model[k] = k * 3
		}
	}

	// Simulated device: load, crash, recover, read back.
	simState := func() map[uint64]uint64 {
		dev := pmem.New(pmem.Config{Size: 256 << 20, Strict: true})
		h, err := core.Create(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		tree, err := fptree.Create(h, th, treeRootSlot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload(th, tree, n); err != nil {
			t.Fatal(err)
		}
		th.Ctx().Merge()
		dev.Crash()

		h2, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			t.Fatalf("recover after crash: %v", err)
		}
		th2 := h2.NewThread()
		defer th2.Close()
		tree2, err := fptree.Open(h2, th2, treeRootSlot)
		if err != nil {
			t.Fatalf("reopen tree after crash: %v", err)
		}
		return snapshot(th2, tree2, n)
	}()

	// Direct device: same workload, flush-and-reopen (there is no crash
	// API in direct mode; a kill -9 on an mmap'd file is exercised by
	// the crash phase of benchmark/run.sh).
	dirState := func() map[uint64]uint64 {
		dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 256 << 20})
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.Create(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		tree, err := fptree.Create(h, th, treeRootSlot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload(th, tree, n); err != nil {
			t.Fatal(err)
		}
		if f, ok := th.(alloc.Flusher); ok {
			f.Flush()
		}
		th.Close()

		h2, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			t.Fatalf("reopen direct heap: %v", err)
		}
		th2 := h2.NewThread()
		defer th2.Close()
		tree2, err := fptree.Open(h2, th2, treeRootSlot)
		if err != nil {
			t.Fatalf("reopen direct tree: %v", err)
		}
		return snapshot(th2, tree2, n)
	}()

	if len(simState) != len(model) {
		t.Fatalf("simulated state has %d keys, model %d", len(simState), len(model))
	}
	if len(dirState) != len(model) {
		t.Fatalf("direct state has %d keys, model %d", len(dirState), len(model))
	}
	for k, want := range model {
		if got, ok := simState[k]; !ok || got != want {
			t.Fatalf("simulated: key %d = %d,%v, want %d", k, got, ok, want)
		}
		if got, ok := dirState[k]; !ok || got != want {
			t.Fatalf("direct: key %d = %d,%v, want %d", k, got, ok, want)
		}
	}
}
