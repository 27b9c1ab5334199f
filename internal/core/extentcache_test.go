package core

import (
	"errors"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
)

// mixedRun drives one thread through a deterministic small+large
// malloc/free mix and returns the thread's final virtual clock.
func mixedRun(t *testing.T, h *Heap) int64 {
	t.Helper()
	th := h.NewThread()
	defer th.Close()
	var small, large []pmem.PAddr
	for i := 0; i < 6000; i++ {
		switch i % 7 {
		case 6:
			p, err := th.Malloc(uint64(32<<10 + (i%8)*(8<<10))) // 32..88 KiB
			if err != nil {
				t.Fatal(err)
			}
			large = append(large, p)
		default:
			p, err := th.Malloc(uint64(48 + i%512))
			if err != nil {
				t.Fatal(err)
			}
			small = append(small, p)
		}
		if i%3 == 2 && len(small) > 0 {
			if err := th.Free(small[len(small)-1]); err != nil {
				t.Fatal(err)
			}
			small = small[:len(small)-1]
		}
		if i%31 == 30 && len(large) > 0 {
			if err := th.Free(large[0]); err != nil {
				t.Fatal(err)
			}
			large = large[1:]
		}
	}
	for _, p := range small {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range large {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	return th.Ctx().Now
}

// TestExtentCacheDeterminism: two identical single-thread runs of the
// cached configuration must produce bit-identical virtual time, and the
// cached-vs-nocache delta must stay within the documented charge-model
// band (batched refills reorder extent carving and move record flushes
// off the allocation critical path, but charge the same work overall).
func TestExtentCacheDeterminism(t *testing.T) {
	run := func(nocache bool) int64 {
		dev := pmem.New(pmem.Config{Size: 256 << 20})
		opts := DefaultOptions(LOG)
		opts.NoExtentCache = nocache
		h, err := Create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		return mixedRun(t, h)
	}
	a1, a2 := run(false), run(false)
	if a1 != a2 {
		t.Fatalf("cached config nondeterministic: %d vs %d ns", a1, a2)
	}
	base := run(true)
	ratio := float64(a1) / float64(base)
	// The batching charge model (DESIGN.md §8): same flushes and fences
	// per recorded extent, fewer fences per slab batch, different carve
	// order. Single-thread totals may differ slightly but not structurally.
	if ratio < 0.70 || ratio > 1.30 {
		t.Fatalf("cached/nocache virtual-time ratio %.3f outside charge-model band (cached=%d base=%d)", ratio, a1, base)
	}
}

// TestGlobalLockAmortization: the number of global large-allocator lock
// acquisitions per slab created must be amortized below 1 (the degenerate
// construction takes 3 per slab: carve, record, free).
func TestGlobalLockAmortization(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20})
	h, err := Create(dev, DefaultOptions(LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	var ps []pmem.PAddr
	for i := 0; i < 20000; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	slabs := h.SlabCreates()
	if slabs < 8 {
		t.Fatalf("workload created only %d slabs; not a refill test", slabs)
	}
	var largeAcq uint64
	for _, r := range h.Contention() {
		if r.Name == "large" {
			largeAcq = r.Acquires
		}
	}
	if largeAcq >= slabs {
		t.Fatalf("%d global acquisitions for %d slabs; want amortized < 1 per slab", largeAcq, slabs)
	}
	for _, p := range ps {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardRoutingAndFallback: moderate large allocations route through
// the shard pools; oversized ones take the global lock; with the cache
// disabled everything is global. Frees resolve correctly either way.
func TestShardRoutingAndFallback(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20})
	h, err := Create(dev, DefaultOptions(LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()

	inShard, err := th.Malloc(40 << 10)
	if err != nil {
		t.Fatal(err)
	}
	global, err := th.Malloc(extent.MaxShardAlloc + 4096)
	if err != nil {
		t.Fatal(err)
	}
	shardAcq := func() (n uint64) {
		for _, r := range h.Contention() {
			if len(r.Name) > 5 && r.Name[:5] == "shard" {
				n += r.Acquires
			}
		}
		return
	}
	if shardAcq() == 0 {
		t.Fatal("40 KiB allocation did not touch a shard pool")
	}
	if err := th.Free(inShard); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(global); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(global); err == nil {
		t.Fatal("double free of global extent must error")
	}
	if err := th.Free(inShard); err == nil {
		t.Fatal("double free of shard extent must error")
	}
}

// TestCacheBackPressure: a heap whose free space is tied up in sibling
// arena caches must flush them rather than report a spurious OOM, and a
// full malloc/free/malloc cycle over the device must succeed twice.
func TestCacheBackPressure(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 48 << 20})
	opts := DefaultOptions(LOG)
	opts.Arenas = 4
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		th := h.NewThread()
		var ps []pmem.PAddr
		for {
			p, err := th.Malloc(256 << 10)
			if err != nil {
				break
			}
			ps = append(ps, p)
		}
		if len(ps) < 64 {
			t.Fatalf("round %d: only %d×256 KiB allocated on a 48 MiB device", round, len(ps))
		}
		for _, p := range ps {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
	}
}

// The shard-heavy crash sweep (40–480 KiB published objects across power
// cuts) now runs at every flush boundary in the crash-point model
// checker: internal/crashmc's TestCrashSweepShards.

// refusingBook is a bookkeeper whose alloc records can be refused, as a
// full log region refuses them.
type refusingBook struct {
	extent.Bookkeeper
	refuse bool
}

func (b *refusingBook) RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	if b.refuse {
		return errors.New("log region exhausted")
	}
	return b.Bookkeeper.RecordAlloc(c, addr, size, slab)
}

// TestMallocUndoesCarveWhenRecordFails: an allocation whose bookkeeping
// record cannot be written leaves nothing behind on any route — an extent
// from the global pool, one from a shard pool, a slab refill with and
// without the arena cache. The parent commit left the global-pool extent
// and the cache-less slab's 64 KiB activated, unrecorded and unreachable.
func TestMallocUndoesCarveWhenRecordFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nocache bool
		size    uint64
	}{
		{"global pool", false, 600 << 10},
		{"shard pool", false, 40 << 10},
		{"slab refill", false, 64},
		{"global pool, no cache", true, 600 << 10},
		{"slab refill, no cache", true, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 256 << 20})
			opts := DefaultOptions(LOG)
			opts.NoExtentCache = tc.nocache
			h, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			book := &refusingBook{Bookkeeper: h.book}
			h.large = extent.New(dev, book, h.extentConfig(), h.opts.extentTiers())
			th := h.NewThread()
			defer th.Close()

			objects := func() (n int) {
				h.Objects(func(Object) bool { n++; return true })
				return
			}
			// A leaked carve moves bytes from the free lists to the activated
			// set, which Used cannot see until the heap has to grow for the
			// next one: fail often enough to outgrow a 4 MiB chunk.
			committed := func() uint64 { return h.Used() + h.LeaseOverhead() }
			p, err := th.Malloc(600 << 10) // the heap's first growth
			if err != nil {
				t.Fatal(err)
			}
			before := committed()
			book.refuse = true
			for i := 0; i < 200; i++ {
				if _, err := th.Malloc(tc.size); !errors.Is(err, alloc.ErrOutOfMemory) {
					t.Fatalf("Malloc with records refused: %v", err)
				}
			}
			if n := objects(); n != 1 || committed() != before {
				t.Fatalf("200 failed allocations left %d objects beside the live one and grew the heap %d -> %d bytes", n-1, before, committed())
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
			book.refuse = false
			p, err = th.Malloc(tc.size)
			if err != nil {
				t.Fatalf("Malloc with records accepted again: %v", err)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}
