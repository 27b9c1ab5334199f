package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
)

// TestWorstCaseChurnNeverFillsTheLog holds the bookkeeping log to its
// provisioning (blog.RegionSize) on the heap that crowds it most: every
// extent as small as a recorded extent gets, the heap full, and half of it
// freed at random, round after round, so tombstones pile up between
// compactions while the live set stays at its largest. No allocation may
// fail for want of log space, no free may fail at all, and the heap must
// close and reopen with exactly the extents still held.
func TestWorstCaseChurnNeverFillsTheLog(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 12
	}
	for _, mib := range []uint64{16, 64, 256} {
		t.Run(fmt.Sprintf("%dMiB", mib), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: mib << 20})
			h, err := Create(dev, DefaultOptions(LOG))
			if err != nil {
				t.Fatal(err)
			}
			th := h.NewThread()
			rng := rand.New(rand.NewSource(1))
			var live []pmem.PAddr
			for r := 0; r < rounds; r++ {
				for {
					p, err := th.Malloc(16<<10 + 1 + uint64(rng.Intn(8<<10)))
					if err != nil {
						if err != alloc.ErrOutOfMemory {
							t.Fatalf("round %d: allocation %d: %v, want the heap full", r, len(live), err)
						}
						break
					}
					live = append(live, p)
				}
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				half := len(live) / 2
				for _, p := range live[half:] {
					if err := th.Free(p); err != nil {
						t.Fatalf("round %d: free of live extent %#x: %v", r, p, err)
					}
				}
				live = live[:half]
			}
			th.Close()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			h, _, err = Open(dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			held := map[pmem.PAddr]bool{}
			for _, p := range live {
				held[p] = true
			}
			extents := 0
			h.Objects(func(o Object) bool {
				if !o.Slab {
					extents++
					if !held[o.Addr] {
						t.Errorf("reopened heap holds extent %#x, which was freed", o.Addr)
					}
				}
				return true
			})
			if extents != len(live) {
				t.Errorf("reopened heap holds %d extents, %d were live", extents, len(live))
			}
		})
	}
}

// TestFreshHeapUsesItsHeapBase: a fresh heap reserves its metadata
// regions (superblock, WAL rings, a bookkeeping log of heap/256) up to the
// heap base, the next 64 KiB boundary, on every device size the benchmark
// runs, and has committed only the superblock bytes below the first ring:
// no ring has been appended to and the log has carved nothing.
func TestFreshHeapUsesItsHeapBase(t *testing.T) {
	const superblock = 8192
	for _, tc := range []struct{ mib, base uint64 }{
		{64, 851968}, {256, 1638400}, {512, 2686976}, {768, 3735552},
	} {
		h, err := Create(pmem.New(pmem.Config{Size: tc.mib << 20}), DefaultOptions(LOG))
		if err != nil {
			t.Fatal(err)
		}
		if uint64(h.heapBase) != tc.base || h.Used() != superblock || h.Peak() != superblock {
			t.Errorf("fresh %d MiB heap: base %d, Used %d, Peak %d bytes, want base %d, Used and Peak %d",
				tc.mib, h.heapBase, h.Used(), h.Peak(), tc.base, superblock)
		}
	}
}

// failingBook is a bookkeeper whose records and tombstones fail while err
// is set, the way a damaged or full log fails them.
type failingBook struct {
	extent.Bookkeeper
	err error
}

func (b *failingBook) RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	if b.err != nil {
		return b.err
	}
	return b.Bookkeeper.RecordAlloc(c, addr, size, slab)
}

func (b *failingBook) RecordFree(c *pmem.Ctx, addrs []pmem.PAddr) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	return b.Bookkeeper.RecordFree(c, addrs)
}

// TestBookkeepingFailureIsNotBadAddress: a free whose tombstone cannot be
// written reports the bookkeeper's error, not that the address was never
// allocated, and leaves the extent live for a later free; an allocation
// whose record cannot be written is out of memory with the bookkeeper's
// error attached. A free of an address that is no live extent is still a
// bad address. Both routes: a shard-pool extent and a global-pool one.
func TestBookkeepingFailureIsNotBadAddress(t *testing.T) {
	injected := errors.New("injected bookkeeping failure")
	for _, size := range []uint64{40 << 10, 600 << 10} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			_, h := newHeap(t, LOG, nil)
			book := &failingBook{Bookkeeper: h.book}
			h.large = extent.New(h.dev, book, h.extentConfig(), h.opts.extentTiers())
			th := h.NewThread()
			defer th.Close()
			p, err := th.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			book.err = injected
			err = th.Free(p)
			if errors.Is(err, alloc.ErrBadAddress) || !errors.Is(err, injected) {
				t.Fatalf("free with tombstones failing: %v, want the bookkeeping error", err)
			}
			if _, err := th.Malloc(size); !errors.Is(err, alloc.ErrOutOfMemory) || !errors.Is(err, injected) {
				t.Fatalf("malloc with records failing: %v, want out of memory from the bookkeeping error", err)
			}
			book.err = nil
			if err := th.Free(p); err != nil {
				t.Fatalf("free once tombstones succeed again: %v", err)
			}
			if err := th.Free(p); err != alloc.ErrBadAddress {
				t.Fatalf("second free of %#x: %v, want ErrBadAddress", p, err)
			}
		})
	}
}
