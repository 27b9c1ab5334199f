package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
)

func newHeap(t *testing.T, v Variant, mutate func(*Options)) (*pmem.Device, *Heap) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
	opts := DefaultOptions(v)
	opts.Arenas = 4
	if mutate != nil {
		mutate(&opts)
	}
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev, h
}

func TestCreateAndBasicMallocFree(t *testing.T) {
	for _, v := range []Variant{LOG, GC} {
		t.Run(v.String(), func(t *testing.T) {
			_, h := newHeap(t, v, nil)
			th := h.NewThread()
			defer th.Close()
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if p == pmem.Null || uint64(p) >= h.dev.Size() {
				t.Fatalf("bad address %#x", p)
			}
			// The block is usable.
			h.Device().WriteU64(p, 0xABCD)
			if h.Device().ReadU64(p) != 0xABCD {
				t.Fatal("block not writable")
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
			if err := th.Free(pmem.Null); err == nil {
				t.Fatal("free of null must error")
			}
			if _, err := th.Malloc(0); err == nil {
				t.Fatal("zero malloc must error")
			}
		})
	}
}

func TestSmallAllocationsAreDistinctAndAligned(t *testing.T) {
	_, h := newHeap(t, LOG, nil)
	th := h.NewThread()
	defer th.Close()
	seen := map[pmem.PAddr]bool{}
	for i := 0; i < 5000; i++ {
		size := uint64(8 + i%500)
		p, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("address %#x handed out twice", p)
		}
		if p%8 != 0 {
			t.Fatalf("misaligned block %#x", p)
		}
		seen[p] = true
	}
}

func TestLargeAllocations(t *testing.T) {
	_, h := newHeap(t, LOG, nil)
	th := h.NewThread()
	defer th.Close()
	sizes := []uint64{17 << 10, 64 << 10, 500 << 10, 2 << 20, 3 << 20}
	var ptrs []pmem.PAddr
	for _, sz := range sizes {
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatalf("size %d: %v", sz, err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMallocWriteFreeStress(t *testing.T) {
	for _, v := range []Variant{LOG, GC} {
		t.Run(v.String(), func(t *testing.T) {
			_, h := newHeap(t, v, nil)
			th := h.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(42))
			type obj struct {
				p    pmem.PAddr
				size uint64
				tag  uint64
			}
			var live []obj
			for op := 0; op < 20000; op++ {
				if len(live) == 0 || rng.Intn(100) < 55 {
					size := uint64(rng.Intn(1000) + 8)
					if rng.Intn(50) == 0 {
						size = uint64(rng.Intn(200)+17) << 10
					}
					p, err := th.Malloc(size)
					if err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					tag := rng.Uint64()
					h.Device().WriteU64(p, tag)
					live = append(live, obj{p, size, tag})
				} else {
					i := rng.Intn(len(live))
					o := live[i]
					if got := h.Device().ReadU64(o.p); got != o.tag {
						t.Fatalf("op %d: object %#x corrupted: %#x != %#x", op, o.p, got, o.tag)
					}
					if err := th.Free(o.p); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			// All surviving objects intact.
			for _, o := range live {
				if h.Device().ReadU64(o.p) != o.tag {
					t.Fatalf("final check: %#x corrupted", o.p)
				}
			}
		})
	}
}

func TestMultithreadedStress(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		t.Run(v.String(), func(t *testing.T) {
			dev, h := newHeap(t, v, nil)
			ck := alloc.NewChecker(h)
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					th := ck.NewThread()
					defer th.Close()
					rng := rand.New(rand.NewSource(seed))
					var mine []pmem.PAddr
					for op := 0; op < 4000; op++ {
						if len(mine) == 0 || rng.Intn(100) < 60 {
							p, err := th.Malloc(uint64(rng.Intn(400) + 8))
							if err != nil {
								errs <- err
								return
							}
							dev.WriteU64(p, uint64(p)^0x5555)
							mine = append(mine, p)
						} else {
							i := rng.Intn(len(mine))
							p := mine[i]
							if dev.ReadU64(p) != uint64(p)^0x5555 {
								errs <- fmt.Errorf("corruption at %#x", p)
								return
							}
							if err := th.Free(p); err != nil {
								errs <- err
								return
							}
							mine[i] = mine[len(mine)-1]
							mine = mine[:len(mine)-1]
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if verrs := ck.Errors(); len(verrs) != 0 {
				t.Fatalf("invariant violations: %v", verrs[:min(len(verrs), 5)])
			}
		})
	}
}

func TestCrossThreadFree(t *testing.T) {
	// Producer-consumer: one thread allocates, another frees.
	_, h := newHeap(t, LOG, nil)
	prod := h.NewThread()
	cons := h.NewThread()
	defer prod.Close()
	defer cons.Close()
	for i := 0; i < 2000; i++ {
		p, err := prod.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := cons.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNormalShutdownRecovery(t *testing.T) {
	for _, v := range []Variant{LOG, GC} {
		t.Run(v.String(), func(t *testing.T) {
			dev, h := newHeap(t, v, nil)
			th := h.NewThread()
			var small, large pmem.PAddr
			var err error
			if small, err = alloc.MallocTo(th, h.RootSlot(0), 128); err != nil {
				t.Fatal(err)
			}
			dev.WriteU64(small, 0x1111)
			th.Ctx().Flush(pmem.CatOther, small, 8)
			if large, err = alloc.MallocTo(th, h.RootSlot(1), 64<<10); err != nil {
				t.Fatal(err)
			}
			dev.WriteU64(large, 0x2222)
			th.Ctx().Flush(pmem.CatOther, large, 8)
			th.Close()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			dev.Crash() // clean shutdown: crash discards nothing that matters

			h2, ns, err := Open(dev, DefaultOptions(v))
			if err != nil {
				t.Fatal(err)
			}
			if ns <= 0 {
				t.Fatal("recovery must consume virtual time")
			}
			// Roots still point at the objects; contents preserved.
			if got := pmem.PAddr(dev.ReadU64(h2.RootSlot(0))); got != small {
				t.Fatalf("root 0 lost: %#x != %#x", got, small)
			}
			if dev.ReadU64(small) != 0x1111 || dev.ReadU64(large) != 0x2222 {
				t.Fatal("object contents lost across shutdown")
			}
			// The heap is fully usable: new allocations do not collide
			// with recovered objects.
			th2 := h2.NewThread()
			defer th2.Close()
			for i := 0; i < 1000; i++ {
				p, err := th2.Malloc(128)
				if err != nil {
					t.Fatal(err)
				}
				if p == small {
					t.Fatal("recovered live block handed out again")
				}
			}
			// Freeing recovered objects works.
			if err := th2.Free(small); err != nil {
				t.Fatal(err)
			}
			if err := th2.Free(large); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrashRecoveryLOGPreservesPublishedObjects(t *testing.T) {
	dev, h := newHeap(t, LOG, nil)
	th := h.NewThread()
	var ptrs []pmem.PAddr
	for i := 0; i < 40; i++ {
		p, err := alloc.MallocTo(th, h.RootSlot(i%alloc.NumRootSlots), uint64(64+i*16))
		if err != nil {
			t.Fatal(err)
		}
		dev.WriteU64(p, uint64(i)+1000)
		th.Ctx().Flush(pmem.CatOther, p, 8)
		ptrs = append(ptrs, p)
	}
	th.Ctx().Merge()
	// Hard crash: no Close().
	dev.Crash()
	h2, _, err := Open(dev, DefaultOptions(LOG))
	if err != nil {
		t.Fatal(err)
	}
	// Only the last 64 roots survive overwriting; every published object
	// whose slot still points at it must be allocated and intact.
	th2 := h2.NewThread()
	defer th2.Close()
	recovered := 0
	for i := 0; i < alloc.NumRootSlots; i++ {
		p := pmem.PAddr(dev.ReadU64(h2.RootSlot(i)))
		if p == pmem.Null {
			continue
		}
		recovered++
		if err := th2.Free(p); err != nil {
			t.Fatalf("recovered object %#x not freeable: %v", p, err)
		}
	}
	if recovered < 30 {
		t.Fatalf("only %d objects recovered", recovered)
	}
	_ = ptrs
}

func TestCrashRecoveryGCReclaimsUnreachable(t *testing.T) {
	dev, h := newHeap(t, GC, nil)
	th := h.NewThread()
	// One published (reachable) object and many leaked ones.
	kept, err := alloc.MallocTo(th, h.RootSlot(0), 256)
	if err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(kept, 0xBEEF)
	th.Ctx().Flush(pmem.CatOther, kept, 8)
	for i := 0; i < 500; i++ {
		if _, err := th.Malloc(256); err != nil { // leaked: never published
			t.Fatal(err)
		}
	}
	th.Ctx().Merge()
	usedBefore := h.Used()
	dev.Crash()

	h2, _, err := Open(dev, DefaultOptions(GC))
	if err != nil {
		t.Fatal(err)
	}
	if dev.ReadU64(kept) != 0xBEEF {
		t.Fatal("reachable object lost")
	}
	// The leaked blocks were reclaimed: allocating 500 more objects must
	// not need more memory than before.
	th2 := h2.NewThread()
	defer th2.Close()
	for i := 0; i < 500; i++ {
		if _, err := th2.Malloc(256); err != nil {
			t.Fatal(err)
		}
	}
	if h2.Used() > usedBefore {
		t.Fatalf("GC did not reclaim leaks: %d > %d", h2.Used(), usedBefore)
	}
	// And the reachable one is still allocated (not handed out again).
	if err := th2.Free(kept); err != nil {
		t.Fatalf("reachable object not allocated after GC: %v", err)
	}
}

func TestGCFollowsPointerChains(t *testing.T) {
	dev, h := newHeap(t, GC, nil)
	th := h.NewThread()
	// Build a linked list of 50 nodes reachable from root 0.
	const nodes = 50
	var first pmem.PAddr
	var prev pmem.PAddr
	for i := 0; i < nodes; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		dev.WriteU64(p, 0)                   // next
		dev.WriteU64(p+8, uint64(i))         // payload
		th.Ctx().Flush(pmem.CatOther, p, 16) // persist node
		if prev != pmem.Null {
			dev.WriteU64(prev, uint64(p))
			th.Ctx().Flush(pmem.CatOther, prev, 8)
		} else {
			first = p
		}
		prev = p
	}
	c := th.Ctx()
	c.PersistU64(pmem.CatOther, h.RootSlot(0), uint64(first))
	c.Merge()
	dev.Crash()

	h2, _, err := Open(dev, DefaultOptions(GC))
	if err != nil {
		t.Fatal(err)
	}
	// Walk the list: every node must be intact and allocated.
	th2 := h2.NewThread()
	defer th2.Close()
	count := 0
	for p := pmem.PAddr(dev.ReadU64(h2.RootSlot(0))); p != pmem.Null; p = pmem.PAddr(dev.ReadU64(p)) {
		if dev.ReadU64(p+8) != uint64(count) {
			t.Fatalf("node %d payload corrupted", count)
		}
		count++
		if count > nodes {
			t.Fatal("list cycle after recovery")
		}
	}
	if count != nodes {
		t.Fatalf("walked %d nodes, want %d", count, nodes)
	}
}

func TestFreeFromClearsSlot(t *testing.T) {
	dev, h := newHeap(t, LOG, nil)
	th := h.NewThread()
	defer th.Close()
	p, err := alloc.MallocTo(th, h.RootSlot(3), 512)
	if err != nil {
		t.Fatal(err)
	}
	if pmem.PAddr(dev.ReadU64(h.RootSlot(3))) != p {
		t.Fatal("slot not set")
	}
	if err := alloc.FreeFrom(th, h.RootSlot(3)); err != nil {
		t.Fatal(err)
	}
	if dev.ReadU64(h.RootSlot(3)) != 0 {
		t.Fatal("slot not cleared")
	}
	if err := alloc.FreeFrom(th, h.RootSlot(3)); err == nil {
		t.Fatal("double FreeFrom must error")
	}
}

func TestSlabMorphingReducesFootprint(t *testing.T) {
	// Allocate many 100 B objects, free 95%, then allocate 1 KB objects:
	// with morphing the freed slabs are reused; without it the heap must
	// grow.
	run := func(morph bool) uint64 {
		dev := pmem.New(pmem.Config{Size: 256 << 20})
		opts := DefaultOptions(LOG)
		opts.Arenas = 1
		opts.Morphing = morph
		h, err := Create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		defer th.Close()
		var ptrs []pmem.PAddr
		for i := 0; i < 100000; i++ {
			p, err := th.Malloc(100)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		// Free 97% scattered (every block except each 32nd).
		for i, p := range ptrs {
			if i%32 != 0 {
				if err := th.Free(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.ResetPeak()
		for i := 0; i < 10000; i++ {
			if _, err := th.Malloc(1000); err != nil {
				t.Fatal(err)
			}
		}
		return h.Peak()
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("morphing did not reduce peak: with=%d without=%d", with, without)
	}
	t.Logf("peak with morphing %d, without %d (%.1f%% saved)", with, without,
		100*(1-float64(with)/float64(without)))
}

func TestMorphedHeapSurvivesCrash(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 1
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	var ptrs []pmem.PAddr
	for i := 0; i < 10000; i++ {
		p, err := th.Malloc(100)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if i%64 != 0 {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Trigger morphs by allocating a different class.
	for i := 0; i < 2000; i++ {
		if _, err := th.Malloc(1000); err != nil {
			t.Fatal(err)
		}
	}
	if m := h.arenas[0].morphs; m == 0 {
		t.Skip("workload did not trigger a morph; geometry changed?")
	}
	// Publish a survivor so we can check it post-crash.
	c := th.Ctx()
	c.PersistU64(pmem.CatOther, h.RootSlot(0), uint64(ptrs[0]))
	dev.WriteU64(ptrs[0], 0x7777)
	c.Flush(pmem.CatOther, ptrs[0], 8)
	c.Merge()
	dev.Crash()
	h2, _, err := Open(dev, DefaultOptions(LOG))
	if err != nil {
		t.Fatal(err)
	}
	if dev.ReadU64(ptrs[0]) != 0x7777 {
		t.Fatal("old-class survivor lost after morph + crash")
	}
	th2 := h2.NewThread()
	defer th2.Close()
	if err := th2.Free(ptrs[0]); err != nil {
		t.Fatalf("survivor not freeable: %v", err)
	}
}

// TestGCScansOldClassSurvivorWhole: NVAlloc-GC's recovery mark scans a
// morphed slab's surviving old-class block over its own size, not the new
// class's. The root points at a survivor of the 1 024-byte class in a slab
// morphed to the 112-byte class, and the only reference to a child sits
// past the new class's block size; the child must still be live after a
// crash.
func TestGCScansOldClassSurvivorWhole(t *testing.T) {
	dev, h := newHeap(t, GC, func(o *Options) { o.Arenas = 1 })
	th := h.NewThread()
	var olds []pmem.PAddr
	for i := 0; i < 2000; i++ {
		p, err := th.Malloc(1000)
		if err != nil {
			t.Fatal(err)
		}
		olds = append(olds, p)
	}
	for i, p := range olds {
		if i%64 != 0 {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20000; i++ {
		if _, err := th.Malloc(100); err != nil {
			t.Fatal(err)
		}
	}
	survivor := pmem.Null
	for i := 0; i < len(olds) && survivor == pmem.Null; i += 64 {
		s := h.slabs.Lookup(olds[i] &^ (slab.Size - 1))
		if s.IsSlabIn() && s.OldBlockIndex(olds[i]) >= 0 {
			survivor = olds[i]
		}
	}
	if survivor == pmem.Null {
		t.Skip("no 1 024-byte survivor in a morphed slab; geometry changed?")
	}
	s := h.slabs.Lookup(survivor &^ (slab.Size - 1))
	const at = 512
	if at+8 <= uint64(s.BlockSize) || at+8 > s.OldBlockSize() {
		t.Fatalf("offset %d must lie past the new class (%d B) and inside the old (%d B)", at, s.BlockSize, s.OldBlockSize())
	}
	child, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	c := th.Ctx()
	c.PersistU64(pmem.CatOther, survivor+at, uint64(child))
	c.PersistU64(pmem.CatOther, h.RootSlot(0), uint64(survivor))
	c.Merge()
	dev.Crash()

	h2, _, err := Open(dev, DefaultOptions(GC))
	if err != nil {
		t.Fatal(err)
	}
	live := objectSet(h2)
	if _, ok := live[survivor]; !ok {
		t.Fatalf("old-class survivor %#x freed by recovery", survivor)
	}
	if _, ok := live[child]; !ok {
		t.Fatalf("child %#x, referenced from byte %d of the survivor, freed by recovery", child, at)
	}
}

func TestUsedPeakAndRootSlots(t *testing.T) {
	_, h := newHeap(t, LOG, nil)
	if h.Used() == 0 {
		t.Fatal("metadata must count as used")
	}
	u0 := h.Used()
	th := h.NewThread()
	defer th.Close()
	if _, err := th.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if h.Used() <= u0 || h.Peak() < h.Used() {
		t.Fatal("usage accounting wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range root slot must panic")
		}
	}()
	h.RootSlot(alloc.NumRootSlots)
}

func TestCloseIdempotenceAndOpenBadDevice(t *testing.T) {
	dev, h := newHeap(t, LOG, nil)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err == nil {
		t.Fatal("second close must error")
	}
	_ = dev
	fresh := pmem.New(pmem.Config{Size: 64 << 20})
	if _, _, err := Open(fresh, DefaultOptions(LOG)); err == nil {
		t.Fatal("open of unformatted device must error")
	}
}

func TestInterleavingEliminatesReflushes(t *testing.T) {
	// The headline mechanism check: consecutive small mallocs with the
	// structure the variant flushes per op — LOG's WAL entries, IC's bitmap
	// lines — interleaved over six stripes vs laid out sequentially.
	run := func(v Variant, stripes int) float64 {
		dev := pmem.New(pmem.Config{Size: 128 << 20})
		opts := DefaultOptions(v)
		opts.Arenas = 1
		opts.Stripes = stripes
		h, err := Create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		for i := 0; i < 5000; i++ {
			if _, err := th.Malloc(64); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		s := dev.Stats()
		return s.ReflushRatio()
	}
	for _, v := range []Variant{LOG, IC} {
		with, without := run(v, 6), run(v, 1)
		if with >= without {
			t.Fatalf("%v: interleaving must cut the reflush ratio: %f vs %f", v, with, without)
		}
		if without < 0.3 {
			t.Fatalf("%v: baseline reflush ratio suspiciously low: %f", v, without)
		}
		t.Logf("%v reflush ratio: interleaved %.3f, sequential %.3f", v, with, without)
	}
}

func TestGCVariantFlushesAlmostNothingOnSmallPath(t *testing.T) {
	count := func(v Variant) uint64 {
		dev := pmem.New(pmem.Config{Size: 128 << 20})
		h, err := Create(dev, DefaultOptions(v))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		dev.ResetStats()
		for i := 0; i < 2000; i++ {
			p, _ := th.Malloc(64)
			if i%2 == 0 {
				_ = th.Free(p)
			}
		}
		th.Ctx().Merge()
		return dev.Stats().Flushes
	}
	gc, log := count(GC), count(LOG)
	if gc*5 > log {
		t.Fatalf("GC small path should flush far less: gc=%d log=%d", gc, log)
	}
}

func TestSizeClassBoundaries(t *testing.T) {
	_, h := newHeap(t, LOG, nil)
	th := h.NewThread()
	defer th.Close()
	for _, size := range []uint64{1, 8, 9, 16, 17, 4095, 4096, 16384, 16385, 17 << 10} {
		p, err := th.Malloc(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if err := th.Free(p); err != nil {
			t.Fatalf("size %d free: %v", size, err)
		}
	}
	// SmallMax boundary behaves per the slab/extent split.
	if sizeclass.IsSmall(slab.Size) {
		t.Fatal("64K must be a large allocation")
	}
}
