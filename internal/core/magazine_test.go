package core

import (
	"testing"

	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
)

// parkDepot allocates and then frees n blocks of the given size on one
// thread, overflowing its tcache so evictions park magazines in the
// arena depot. Returns the freed addresses.
func parkDepot(t *testing.T, th *Thread, n int, size uint64) []pmem.PAddr {
	t.Helper()
	addrs := make([]pmem.PAddr, 0, n)
	for i := 0; i < n; i++ {
		a, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

func TestMagazineEvictionParksDepotAndRefillConsumes(t *testing.T) {
	for _, v := range []Variant{LOG, GC} {
		t.Run(v.String(), func(t *testing.T) {
			_, h := newHeap(t, v, func(o *Options) { o.Arenas = 1 })
			th := h.NewThread().(*Thread)
			defer th.Close()
			class := sizeclass.Class(64)
			addrs := parkDepot(t, th, 200, 64)

			a := h.arenas[0]
			parked := len(a.depots[class])
			if parked == 0 {
				t.Fatal("200 frees through a 24-block tcache parked no magazine")
			}
			if parked > depotMags {
				t.Fatalf("depot holds %d magazines, bound is %d", parked, depotMags)
			}

			// Refill must consume the parked magazines before carving fresh
			// blocks out of slabs.
			for range addrs {
				if _, err := th.Malloc(64); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(a.depots[class]); got != 0 {
				t.Fatalf("depot still holds %d magazines after refilling %d blocks", got, len(addrs))
			}
		})
	}
}

func TestDepotBoundedWithBypassFallback(t *testing.T) {
	_, h := newHeap(t, LOG, func(o *Options) { o.Arenas = 1 })
	th := h.NewThread().(*Thread)
	defer th.Close()
	class := sizeclass.Class(64)
	// Far more frees than tcache + full depot can hold: the overflow must
	// take the per-block bypass path, and the depot must stay bounded.
	addrs := parkDepot(t, th, 600, 64)
	a := h.arenas[0]
	if got := len(a.depots[class]); got > depotMags {
		t.Fatalf("depot grew to %d magazines, bound is %d", got, depotMags)
	}
	seen := map[pmem.PAddr]bool{}
	for _, addr := range addrs {
		if seen[addr] {
			t.Fatalf("address %#x freed twice", addr)
		}
		seen[addr] = true
	}
}

func TestLastThreadCloseDrainsDepots(t *testing.T) {
	_, h := newHeap(t, LOG, func(o *Options) { o.Arenas = 1 })
	th := h.NewThread().(*Thread)
	addrs := parkDepot(t, th, 200, 64)
	th.Close()

	a := h.arenas[0]
	for class, d := range a.depots {
		if len(d) != 0 {
			t.Fatalf("class %d depot still holds %d magazines after last thread closed", class, len(d))
		}
	}
	for _, addr := range addrs {
		if h.BlockAllocated(addr) {
			t.Fatalf("freed block %#x still allocated after last thread closed", addr)
		}
	}
	h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
		h.lockSlabState(s)
		defer h.unlockSlabState(s)
		if s.Reserved != 0 {
			t.Fatalf("slab %#x has %d reservations after last thread closed", s.Base, s.Reserved)
		}
		return true
	})
}

func TestHeapCloseDrainsLeakedDepots(t *testing.T) {
	// A worker parks magazines and closes; an idle thread stays open so
	// the last-thread drain never fires. Heap.Close must still unreserve
	// the depot blocks before the GC variant's bitmap sync, or the parked
	// reservations would be persisted as allocated.
	dev, h := newHeap(t, GC, func(o *Options) { o.Arenas = 1 })
	idle := h.NewThread()
	_ = idle // deliberately left open across Close
	worker := h.NewThread().(*Thread)
	addrs := parkDepot(t, worker, 200, 64)
	worker.Close()

	a := h.arenas[0]
	parked := 0
	for _, d := range a.depots {
		parked += len(d)
	}
	if parked == 0 {
		t.Skip("no magazines parked; eviction path not reached")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for class, d := range a.depots {
		if len(d) != 0 {
			t.Fatalf("class %d depot still holds %d magazines after Heap.Close", class, len(d))
		}
	}
	h2, _, err := Open(dev, DefaultOptions(GC))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if h2.BlockAllocated(addr) {
			t.Fatalf("freed block %#x allocated after shutdown recovery (depot reservation persisted)", addr)
		}
	}
}
