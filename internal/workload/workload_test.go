package workload

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/baseline"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

func nvheap(t *testing.T, v core.Variant) alloc.Heap {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	h, err := core.Create(dev, core.DefaultOptions(v))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestThreadtestCompletes(t *testing.T) {
	h := nvheap(t, core.LOG)
	r := Threadtest(h, 2, 5, 200, 64)
	if r.Ops != 2*5*200*2 {
		t.Fatalf("ops %d, want %d", r.Ops, 2*5*200*2)
	}
	if r.MakespanNS <= 0 || r.MopsPerSec() <= 0 {
		t.Fatal("no virtual time recorded")
	}
	if r.Stats.Flushes == 0 {
		t.Fatal("LOG variant must flush")
	}
}

func TestProdConBalances(t *testing.T) {
	h := nvheap(t, core.LOG)
	r := ProdCon(h, 4, 2000, 64)
	// 2 pairs * 2000 allocs + 2000 frees each.
	if r.Ops != 2*2000*2 {
		t.Fatalf("ops %d", r.Ops)
	}
	// All objects freed: usage back to near baseline (slabs cached).
	if r.UsedBytes > r.PeakBytes {
		t.Fatal("used exceeds peak")
	}
	// Odd thread counts must not deadlock.
	r = ProdCon(nvheap(t, core.LOG), 3, 500, 64)
	if r.Ops == 0 {
		t.Fatal("odd prodcon did nothing")
	}
	r = ProdCon(nvheap(t, core.LOG), 1, 500, 64)
	if r.Ops != 1000 {
		t.Fatalf("single-thread prodcon ops %d", r.Ops)
	}
}

func TestShbenchAndLarson(t *testing.T) {
	h := nvheap(t, core.GC)
	if r := Shbench(h, 2, 300); r.Ops == 0 {
		t.Fatal("shbench did nothing")
	}
	if r := Larson(h, 2, 64, 2000, 64, 256); r.Name != "Larson-small" || r.Ops == 0 {
		t.Fatalf("larson-small wrong: %+v", r.Name)
	}
	if r := Larson(h, 1, 16, 100, 32<<10, 512<<10); r.Name != "Larson-large" {
		t.Fatal("larson-large misnamed")
	}
}

func TestDBMStest(t *testing.T) {
	h := nvheap(t, core.LOG)
	r := DBMStest(h, 2, 3, 20)
	if r.Ops == 0 || r.PeakBytes == 0 {
		t.Fatalf("dbms: %+v", r)
	}
}

func TestFragSpecsMatchPaperTable1(t *testing.T) {
	want := []FragSpec{
		{"W1", 100, 100, 0.9, 130, 130},
		{"W2", 100, 150, 0.0, 200, 250},
		{"W3", 100, 150, 0.9, 200, 250},
		{"W4", 100, 200, 0.5, 1000, 2000},
	}
	if len(FragSpecs) != len(want) {
		t.Fatal("wrong spec count")
	}
	for i, w := range want {
		if FragSpecs[i] != w {
			t.Fatalf("spec %d = %+v, want %+v", i, FragSpecs[i], w)
		}
	}
}

func TestFragbenchMorphingReducesPeak(t *testing.T) {
	// The headline fragmentation result at miniature scale: NVAlloc with
	// slab morphing beats NVAlloc without it on W4.
	run := func(morph bool) uint64 {
		dev := pmem.New(pmem.Config{Size: 512 << 20})
		opts := core.DefaultOptions(core.LOG)
		opts.Morphing = morph
		h, err := core.Create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := Fragbench(h, FragSpecs[3], FragConfig{LiveBytes: 8 << 20, Threads: 1})
		return r.PeakBytes
	}
	with, without := run(true), run(false)
	if with > without {
		t.Fatalf("morphing made fragmentation worse: %d vs %d", with, without)
	}
	t.Logf("W4 peak: with morphing %d MiB, without %d MiB", with>>20, without>>20)
}

func TestFragbenchOnBaseline(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	h, err := baseline.New(dev, baseline.PMDK)
	if err != nil {
		t.Fatal(err)
	}
	r := Fragbench(h, FragSpecs[0], FragConfig{LiveBytes: 4 << 20, Threads: 1})
	if r.PeakBytes < r.LiveBytes {
		t.Fatalf("peak %d below live bound %d?", r.PeakBytes, r.LiveBytes)
	}
	if r.Ops == 0 {
		t.Fatal("no ops")
	}
}

func TestRunIsolatesStats(t *testing.T) {
	h := nvheap(t, core.LOG)
	_ = Threadtest(h, 1, 2, 100, 64)
	r2 := Run("noop", h, 1, func(_ int, _ alloc.Thread, _ *rand.Rand) uint64 { return 0 })
	if r2.Stats.Flushes != 0 {
		t.Fatalf("stats leaked across runs: %d flushes", r2.Stats.Flushes)
	}
}

func TestPoissonSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s := poissonSize(rng, 32<<10, 512<<10)
		if s < 32<<10 || s > 512<<10 {
			t.Fatalf("size %d out of range", s)
		}
	}
}

// countingHeap numbers the handles a real heap hands out.
type countingHeap struct {
	alloc.Heap
	handed atomic.Int32
}

type numberedThread struct {
	alloc.Thread
	n int
}

func (h *countingHeap) NewThread() alloc.Thread {
	return &numberedThread{h.Heap.NewThread(), int(h.handed.Add(1)) - 1}
}

// TestRunBindsWorkerToItsHandleInOrder: worker w always runs on the
// w-th handle the heap created, so its arena follows from the heap's
// least-loaded rule alone. Created inside the worker goroutines, handle
// order was the scheduler's.
func TestRunBindsWorkerToItsHandleInOrder(t *testing.T) {
	const threads = 8
	h := &countingHeap{Heap: nvheap(t, core.LOG)}
	for round := 0; round < 50; round++ {
		h.handed.Store(0)
		var got [threads]int
		Run("binding", h, threads, func(w int, th alloc.Thread, _ *rand.Rand) uint64 {
			got[w] = th.(*numberedThread).n
			return 0
		})
		for w, n := range got {
			if n != w {
				t.Fatalf("round %d: worker %d ran on handle %d (all: %v)", round, w, n, got)
			}
		}
	}
}
