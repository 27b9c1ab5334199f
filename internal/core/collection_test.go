package core

import (
	"sort"
	"testing"

	"nvalloc/internal/pmem"
)

func objectSet(h *Heap) map[pmem.PAddr]uint64 {
	out := map[pmem.PAddr]uint64{}
	h.Objects(func(o Object) bool {
		out[o.Addr] = o.Size
		return true
	})
	return out
}

func TestObjectsEnumeratesExactlyLiveSet(t *testing.T) {
	_, h := newHeap(t, IC, nil)
	th := h.NewThread()
	defer th.Close()
	want := map[pmem.PAddr]uint64{}
	var order []pmem.PAddr
	for i := 0; i < 3000; i++ {
		size := uint64(16 + i%700)
		if i%40 == 0 {
			size = 64 << 10 // some large objects
		}
		p, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = size
		order = append(order, p)
	}
	// Free a third.
	for i := 0; i < len(order); i += 3 {
		if err := th.Free(order[i]); err != nil {
			t.Fatal(err)
		}
		delete(want, order[i])
	}
	got := objectSet(h)
	if len(got) != len(want) {
		t.Fatalf("Objects reported %d, want %d", len(got), len(want))
	}
	for p := range want {
		sz, ok := got[p]
		if !ok {
			t.Fatalf("live object %#x missing from collection", p)
		}
		// Small sizes are rounded up to their class; the reported size
		// must cover the request.
		if sz < want[p] && sz != 0 {
			t.Fatalf("object %#x reported size %d < requested %d", p, sz, want[p])
		}
	}
	// Address order and early stop.
	var addrs []pmem.PAddr
	h.Objects(func(o Object) bool {
		addrs = append(addrs, o.Addr)
		return len(addrs) < 10
	})
	if len(addrs) != 10 {
		t.Fatalf("early stop failed: %d", len(addrs))
	}
	if !sort.SliceIsSorted(addrs, func(i, j int) bool { return addrs[i] < addrs[j] }) {
		t.Fatal("Objects not in address order")
	}
}

func TestObjectsExcludesTcacheResidents(t *testing.T) {
	_, h := newHeap(t, IC, nil)
	th := h.NewThread()
	defer th.Close()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	// p now sits in the tcache (reserved, not live).
	if _, ok := objectSet(h)[p]; ok {
		t.Fatal("tcache-resident block reported as a live object")
	}
}

func TestICVariantCrashKeepsAllPersistedAllocations(t *testing.T) {
	dev, h := newHeap(t, IC, nil)
	th := h.NewThread()
	// Allocate objects; none published anywhere — with internal
	// collection they must survive a crash and be enumerable.
	want := map[pmem.PAddr]bool{}
	for i := 0; i < 500; i++ {
		p, err := th.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = true
	}
	th.Ctx().Merge()
	dev.Crash()
	h2, _, err := Open(dev, DefaultOptions(IC))
	if err != nil {
		t.Fatal(err)
	}
	got := objectSet(h2)
	for p := range want {
		if _, ok := got[p]; !ok {
			t.Fatalf("object %#x lost by IC recovery", p)
		}
	}
	// The application resolves leaks by iterating and freeing.
	th2 := h2.NewThread().(*Thread)
	defer th2.Close()
	for p := range want {
		if err := th2.Free(p); err != nil {
			t.Fatalf("collection object %#x not freeable: %v", p, err)
		}
	}
	// Open deals the slabs out over every arena: the frees of blocks
	// another arena owns wait in th2's remote-free buffers until a drain.
	th2.Flush()
	if n := len(objectSet(h2)); n != 0 {
		t.Fatalf("%d objects remain after freeing everything", n)
	}
}

func TestICVariantFlushesBitmapsButNoWAL(t *testing.T) {
	dev, h := newHeap(t, IC, nil)
	th := h.NewThread()
	defer th.Close()
	dev.ResetStats()
	for i := 0; i < 500; i++ {
		p, _ := th.Malloc(64)
		if i%2 == 0 {
			_ = th.Free(p)
		}
	}
	th.Ctx().Merge()
	s := dev.Stats()
	if s.CatFlush[pmem.CatWAL] != 0 {
		t.Fatalf("IC variant wrote %d WAL flushes", s.CatFlush[pmem.CatWAL])
	}
	if s.CatFlush[pmem.CatMeta] == 0 {
		t.Fatal("IC variant must flush bitmap metadata")
	}
}

func TestICObjectsSeeMorphedSlabSurvivors(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Strict: true})
	opts := DefaultOptions(IC)
	opts.Arenas = 1
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	var ptrs []pmem.PAddr
	for i := 0; i < 20000; i++ {
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
	for i := 0; i < 2000; i++ {
		if _, err := th.Malloc(1000); err != nil {
			t.Fatal(err)
		}
	}
	if m, _ := h.MorphStats(); m == 0 {
		t.Skip("no morphs triggered")
	}
	got := objectSet(h)
	for i := 0; i < len(ptrs); i += 64 {
		if _, ok := got[ptrs[i]]; !ok {
			t.Fatalf("old-class survivor %#x missing from collection", ptrs[i])
		}
	}
}
