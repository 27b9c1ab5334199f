package alloc_test

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

func TestCheckerDetectsViolationsAndPassesCleanUse(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	c := alloc.NewChecker(h)
	th := c.NewThread()
	defer th.Close()

	p1, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := alloc.MallocTo(th, c.RootSlot(0), 128)
	if err != nil {
		t.Fatal(err)
	}
	_ = p2
	if c.LiveCount() != 2 {
		t.Fatalf("live %d", c.LiveCount())
	}
	if err := th.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := alloc.FreeFrom(th, c.RootSlot(0)); err != nil {
		t.Fatal(err)
	}
	if errs := c.Errors(); len(errs) != 0 {
		t.Fatalf("clean usage reported violations: %v", errs)
	}
	if c.LiveCount() != 0 {
		t.Fatal("live set not drained")
	}
	if got := c.Snapshot(); len(got) != 0 {
		t.Fatal("snapshot should be empty")
	}
}

// brokenHeap returns overlapping allocations to prove the checker works.
type brokenThread struct {
	alloc.Thread
	n int
}

func (b *brokenThread) Malloc(size uint64) (pmem.PAddr, error) {
	b.n++
	if b.n > 1 {
		return 0x10000, nil // same address every time
	}
	return 0x10000, nil
}

type brokenHeap struct{ alloc.Heap }

func (b *brokenHeap) NewThread() alloc.Thread {
	return &brokenThread{Thread: b.Heap.NewThread()}
}

func TestCheckerCatchesDoubleHandout(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	c := alloc.NewChecker(&brokenHeap{h})
	th := c.NewThread()
	_, _ = th.Malloc(64)
	_, _ = th.Malloc(64)
	if len(c.Errors()) == 0 {
		t.Fatal("checker missed a double handout")
	}
}

// scriptedThread hands out the addresses it is given, in order.
type scriptedThread struct {
	alloc.Thread
	addrs []pmem.PAddr
}

func (s *scriptedThread) Malloc(size uint64) (pmem.PAddr, error) {
	p := s.addrs[0]
	s.addrs = s.addrs[1:]
	return p, nil
}

type scriptedHeap struct {
	alloc.Heap
	addrs []pmem.PAddr
}

func (s *scriptedHeap) NewThread() alloc.Thread {
	return &scriptedThread{Thread: s.Heap.NewThread(), addrs: s.addrs}
}

// TestCheckerCatchesOverlapWithEitherNeighbour: a block that starts inside
// the live block below it, and one that runs into the live block above
// it, are each reported against that neighbour; blocks that only touch
// are not.
func TestCheckerCatchesOverlapWithEitherNeighbour(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		addrs []pmem.PAddr
		sizes []uint64
		want  string
	}{
		{"predecessor", []pmem.PAddr{0x10000, 0x20000, 0x10020}, []uint64{64, 64, 64},
			"allocation [0x10020,+64) overlaps live [0x10000,+64)"},
		{"successor", []pmem.PAddr{0x10040, 0x20000, 0x10000}, []uint64{64, 64, 128},
			"allocation [0x10000,+128) overlaps live [0x10040,+64)"},
		{"adjacent", []pmem.PAddr{0x10040, 0x10080, 0x10000}, []uint64{64, 64, 64}, ""},
	} {
		c := alloc.NewChecker(&scriptedHeap{Heap: h, addrs: tc.addrs})
		th := c.NewThread()
		for _, size := range tc.sizes {
			_, _ = th.Malloc(size)
		}
		errs := c.Errors()
		switch {
		case tc.want == "" && len(errs) != 0:
			t.Errorf("%s: %v, want no violation", tc.name, errs)
		case tc.want != "" && (len(errs) != 1 || errs[0] != tc.want):
			t.Errorf("%s: %v, want [%s]", tc.name, errs, tc.want)
		}
	}
}
