package extent

import (
	"errors"
	"fmt"
	"testing"

	"nvalloc/internal/blog"
	"nvalloc/internal/pmem"
)

// doorCost is what one verb sequence costs: how often each resource was
// acquired, the flushes and the virtual time charged per category, and the
// fences.
type doorCost struct {
	Global, Book uint64    // acquires of the global pool's and the bookkeeper's resource
	Shard        [2]uint64 // acquires of each shard pool's resource
	Flush        [pmem.NumCategories]uint64
	Fences       uint64
	NS           [pmem.NumCategories]int64
}

// doorEnv is one construction of the front door on a fresh device.
type doorEnv struct {
	t    *testing.T
	dev  *pmem.Device
	a    *Allocator
	c    *pmem.Ctx
	book *pmem.Resource
}

func newDoorEnv(t *testing.T, devSize uint64, tiers Tiers, inPlace bool) *doorEnv {
	dev := pmem.New(pmem.Config{Size: devSize, Strict: true})
	cfg := Config{HeapBase: heapBase, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}
	e := &doorEnv{t: t, dev: dev}
	if inPlace {
		e.a = New(dev, NewInPlace(dev, heapBase, brkPtr), cfg, tiers)
		_, e.book, _ = e.a.Locks()
	} else {
		bk := blog.New(dev.Mem(), logBase, logSize, 6)
		e.a = New(dev, bk, cfg, tiers)
		e.book = bk.Res()
	}
	e.c = dev.NewCtx()
	return e
}

func (e *doorEnv) must(err error) {
	e.t.Helper()
	if err != nil {
		e.t.Fatal(err)
	}
}

func (e *doorEnv) addr(p pmem.PAddr, err error) pmem.PAddr {
	e.t.Helper()
	e.must(err)
	return p
}

func (e *doorEnv) measure(run func()) doorCost {
	global, _, shards := e.a.Locks()
	acq := func() (out [4]uint64) {
		out[0], out[1] = global.Acquires(), e.book.Acquires()
		for i, r := range shards {
			out[2+i] = r.Acquires()
		}
		return
	}
	a0, s0 := acq(), e.c.Local()
	run()
	a1, s1 := acq(), e.c.Local()
	cost := doorCost{
		Global: a1[0] - a0[0], Book: a1[1] - a0[1],
		Shard:  [2]uint64{a1[2] - a0[2], a1[3] - a0[3]},
		Fences: s1.Fences - s0.Fences,
	}
	for i := range cost.Flush {
		cost.Flush[i] = s1.CatFlush[i] - s0.CatFlush[i]
		cost.NS[i] = s1.CatNS[i] - s0.CatNS[i]
	}
	return cost
}

// TestDoorVerbSequences runs every legal verb sequence through the front
// door in each construction and holds what it costs — per-resource acquire
// counts, flushes, fences and virtual time by category — to the numbers the
// same table produced on the parent commit (c850338), run there through an
// adapter that composed that commit's twenty entry points the way
// internal/core routed between them by hand. One deliberate difference from
// those numbers, with the in-place bookkeeper only: every release into the
// global pool acquires the book resource once less (the parent wrapped a
// no-op MaybeGC in an acquire/release of nothing); doorCosts notes the
// parent's count beside each such row. A second, since: a heap's growth
// stays retained until it is carved, so an extent released beside the
// untouched rest of its chunk (reclaimed) no longer coalesces with it, and
// the search column drops by the 30 ns of each such coalesce — one per
// single-extent row that grew the heap, two on the in-place slab rows of
// the degenerate construction (the gap before the first slab-aligned
// address and the tail), one to three on the longer sequences.
func TestDoorVerbSequences(t *testing.T) {
	const big, huge = 48 << 10, 600 << 10 // a shard pool's, the global pool's
	byVerbs := func(size uint64) func(e *doorEnv) {
		return func(e *doorEnv) {
			p := e.addr(e.a.Carve(e.c, 0, size, false))
			e.must(e.a.Record(e.c, 0, p, false))
			e.must(e.a.Tombstone(e.c, []pmem.PAddr{p}))
			e.must(e.a.Release(e.c, 0, p, false))
		}
	}
	scenarios := []struct {
		name    string
		devSize uint64
		run     func(e *doorEnv)
	}{
		{"alloc free 48K", 64 << 20, func(e *doorEnv) {
			e.must(e.a.Free(e.c, 0, e.addr(e.a.Alloc(e.c, 0, big)), false))
		}},
		{"alloc free 600K", 64 << 20, func(e *doorEnv) {
			e.must(e.a.Free(e.c, 0, e.addr(e.a.Alloc(e.c, 0, huge)), false))
		}},
		{"carve record tombstone release 48K", 64 << 20, byVerbs(big)},
		{"carve record tombstone release 600K", 64 << 20, byVerbs(huge)},
		{"carve release 48K", 64 << 20, func(e *doorEnv) {
			e.must(e.a.Release(e.c, 0, e.addr(e.a.Carve(e.c, 0, big, false)), false))
		}},
		{"carve release 600K", 64 << 20, func(e *doorEnv) {
			e.must(e.a.Release(e.c, 0, e.addr(e.a.Carve(e.c, 0, huge, false)), false))
		}},
		{"slab carve record free", 64 << 20, func(e *doorEnv) {
			p := e.addr(e.a.Carve(e.c, 0, slabSize, true))
			e.must(e.a.Record(e.c, 0, p, true))
			e.must(e.a.Free(e.c, 0, p, true))
		}},
		{"slab carve release", 64 << 20, func(e *doorEnv) {
			e.must(e.a.Release(e.c, 0, e.addr(e.a.Carve(e.c, 0, slabSize, true)), true))
		}},
		{"lease take and drop", 64 << 20, func(e *doorEnv) {
			// Four 512 KiB extents fill a lease; the fifth takes a second
			// one, which is dropped when it empties with the first spare.
			var ps []pmem.PAddr
			for i := 0; i < 5; i++ {
				ps = append(ps, e.addr(e.a.Alloc(e.c, 0, MaxShardAlloc)))
			}
			for _, p := range ps {
				e.must(e.a.Free(e.c, 0, p, false))
			}
		}},
		{"cache overflow", 64 << 20, func(e *doorEnv) {
			var ps []pmem.PAddr
			for i := 0; i < 3*maxSlabBatch; i++ {
				p := e.addr(e.a.Carve(e.c, 0, slabSize, true))
				e.must(e.a.Record(e.c, 0, p, true))
				ps = append(ps, p)
			}
			for _, p := range ps {
				e.must(e.a.Free(e.c, 0, p, true))
			}
		}},
		{"exhaustion sibling flush retry", 12 << 20, func(e *doorEnv) {
			// Arena 1 parks extents in its cache; arena 0 then carves slabs
			// until the heap is empty, which takes arena 1's back on the way.
			var parked []pmem.PAddr
			for i := 0; i < maxSlabBatch; i++ {
				parked = append(parked, e.addr(e.a.Carve(e.c, 1, slabSize, true)))
			}
			for _, p := range parked {
				e.must(e.a.Release(e.c, 1, p, true))
			}
			var ps []pmem.PAddr
			for {
				p, err := e.a.Carve(e.c, 0, slabSize, true)
				if err != nil {
					break
				}
				ps = append(ps, p)
			}
			if want := 2 * int(ChunkSize/slabSize-(e.a.pool.book.DataOffset()+slabSize-1)/slabSize); len(ps) != want {
				e.t.Fatalf("carved %d slab extents out of a two-chunk heap of %d", len(ps), want)
			}
			// 60 KiB: more than the in-place scheme leaves between a chunk's
			// header table and its first slab-aligned address.
			if _, err := e.a.Alloc(e.c, 0, 60<<10); err == nil {
				e.t.Fatal("Alloc succeeded on a full heap")
			}
			// One extent back in arena 0's cache is arena 1's to allocate
			// from: its shard cannot lease, the caches are flushed, the
			// global pool serves.
			e.must(e.a.Release(e.c, 0, ps[0], true))
			e.must(e.a.Free(e.c, 1, e.addr(e.a.Alloc(e.c, 1, 60<<10)), false))
		}},
	}
	constructions := []struct {
		name    string
		tiers   Tiers
		inPlace bool
	}{
		{"tiers", Tiers{Caches: 2, SlabSize: slabSize, Pools: 2}, false},
		{"degenerate", Tiers{}, false},
		{"tiers in-place", Tiers{Caches: 2, SlabSize: slabSize, Pools: 2}, true},
		{"degenerate in-place", Tiers{}, true},
	}
	for _, k := range constructions {
		for _, s := range scenarios {
			name := k.name + "/" + s.name
			t.Run(name, func(t *testing.T) {
				e := newDoorEnv(t, s.devSize, k.tiers, k.inPlace)
				got := e.measure(func() { s.run(e) })
				if want, ok := doorCosts[name]; !ok || got != want {
					t.Errorf("cost changed:\n got  %#v\n want %#v", got, want)
				}
				if k.inPlace {
					return
				}
				// Whatever the sequence left carved and unrecorded is free
				// after a crash.
				e.c.Merge()
				e.dev.Crash()
				_, recs, err := blog.Open(e.dev, logBase, logSize, 6)
				e.must(err)
				if len(recs) != 0 {
					t.Errorf("%d records survive a sequence that freed all it recorded: %+v", len(recs), recs)
				}
			})
		}
	}
	if t.Failed() {
		fmt.Println("// doorCosts as measured:")
		for _, k := range constructions {
			for _, s := range scenarios {
				e := newDoorEnv(t, s.devSize, k.tiers, k.inPlace)
				fmt.Printf("\t%q: %#v,\n", k.name+"/"+s.name, e.measure(func() { s.run(e) }))
			}
		}
	}
}

// TestAllocUndoesCarveWhenRecordFails: an allocation whose record cannot be
// written hands the carved extent back, on every route, so the failure
// leaves nothing activated, unrecorded and unreachable. The log is header
// plus two chunks, one for live records and one kept for their copy: the
// 97th record is refused.
func TestAllocUndoesCarveWhenRecordFails(t *testing.T) {
	// A slab is carved, formatted, recorded; its owner undoes the carve
	// with Uncarve when the record fails (core's and baseline's newSlab).
	slab := func(a *Allocator, c *pmem.Ctx) (pmem.PAddr, error) {
		p, err := a.Carve(c, 0, slabSize, true)
		if err != nil {
			return pmem.Null, err
		}
		if err := a.Record(c, 0, p, true); err != nil {
			return pmem.Null, errors.Join(err, a.Uncarve(c, 0, p, true))
		}
		return p, nil
	}
	extent := func(a *Allocator, c *pmem.Ctx) (pmem.PAddr, error) { return a.Alloc(c, 0, PageSize) }
	for _, route := range []struct {
		name  string
		tiers Tiers
		alloc func(a *Allocator, c *pmem.Ctx) (pmem.PAddr, error)
	}{
		{"global pool", Tiers{}, extent},
		{"shard pool", Tiers{Pools: 1}, extent},
		{"slab without cache", Tiers{}, slab},
		{"slab with cache", Tiers{Caches: 1, SlabSize: slabSize}, slab},
	} {
		t.Run(route.name, func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
			bk := blog.New(dev.Mem(), logBase, 3*blog.ChunkSize, 6)
			a := New(dev, bk, Config{HeapBase: heapBase, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}, route.tiers)
			c := dev.NewCtx()
			// Activated bytes that are not parked idle in a cache or a lease
			// belong to someone. Committed bytes (Used, plus what a refill
			// parks in a cache) also count the free space of a heap that
			// grew, so they are compared only when the heap did not.
			owned := func() uint64 { return a.pool.activatedBytes.Load() - a.LeaseOverhead() }
			committed := func() uint64 { return a.Used() + a.LeaseOverhead() }
			for n := 0; ; n++ {
				before, used, grows := owned(), committed(), a.pool.grows
				_, err := route.alloc(a, c)
				if err == nil {
					continue
				}
				// Two chunks: one of live records, and room for its copy.
				if want := bk.EntriesPerChunk(); n != want || bk.Live() != n {
					t.Fatalf("allocation %d failed (%v) with %d records in the log, want it to take %d", n+1, err, bk.Live(), want)
				}
				if owned() != before || (a.pool.grows == grows && committed() != used) {
					t.Fatalf("the failed allocation (%v) moved owned bytes %d -> %d, committed %d -> %d", err, before, owned(), used, committed())
				}
				break
			}
			// And again: the space a failed allocation carved is carved by
			// the next one, not lost.
			before := owned()
			if _, err := route.alloc(a, c); err == nil || owned() != before {
				t.Fatalf("second failing allocation: err=%v, owned bytes %d -> %d", err, before, owned())
			}
		})
	}
}

// doorCosts is what TestDoorVerbSequences' table cost on the parent commit.
var doorCosts = map[string]doorCost{
	"tiers/alloc free 48K":                                    {Global: 1, Book: 2, Shard: [2]uint64{2, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 20, 50}},
	"tiers/alloc free 600K":                                   {Global: 2, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"tiers/carve record tombstone release 48K":                {Global: 1, Book: 2, Shard: [2]uint64{2, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 20, 50}},
	"tiers/carve record tombstone release 600K":               {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"tiers/carve release 48K":                                 {Global: 1, Book: 0, Shard: [2]uint64{2, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 20, 10}},
	"tiers/carve release 600K":                                {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},
	"tiers/slab carve record free":                            {Global: 1, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 75, 50}},
	"tiers/slab carve release":                                {Global: 1, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 75, 10}},
	"tiers/lease take and drop":                               {Global: 3, Book: 10, Shard: [2]uint64{10, 0}, Flush: [4]uint64{14, 0, 0, 0}, Fences: 13, NS: [4]int64{3275, 0, 165, 130}},
	"tiers/cache overflow":                                    {Global: 7, Book: 48, Shard: [2]uint64{0, 0}, Flush: [4]uint64{52, 0, 0, 0}, Fences: 51, NS: [4]int64{8545, 0, 1085, 510}},
	"tiers/exhaustion sibling flush retry":                    {Global: 28, Book: 2, Shard: [2]uint64{1, 1}, Flush: [4]uint64{7, 0, 0, 0}, Fences: 6, NS: [4]int64{2765, 0, 3615, 60}},
	"degenerate/alloc free 48K":                               {Global: 2, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"degenerate/alloc free 600K":                              {Global: 2, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"degenerate/carve record tombstone release 48K":           {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"degenerate/carve record tombstone release 600K":          {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"degenerate/carve release 48K":                            {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},
	"degenerate/carve release 600K":                           {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},
	"degenerate/slab carve record free":                       {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{6, 0, 0, 0}, Fences: 5, NS: [4]int64{1965, 0, 0, 50}},
	"degenerate/slab carve release":                           {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},
	"degenerate/lease take and drop":                          {Global: 10, Book: 10, Shard: [2]uint64{0, 0}, Flush: [4]uint64{14, 0, 0, 0}, Fences: 13, NS: [4]int64{3275, 0, 220, 130}},
	"degenerate/cache overflow":                               {Global: 72, Book: 48, Shard: [2]uint64{0, 0}, Flush: [4]uint64{52, 0, 0, 0}, Fences: 51, NS: [4]int64{8545, 0, 1265, 510}},
	"degenerate/exhaustion sibling flush retry":               {Global: 149, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{7, 0, 0, 0}, Fences: 6, NS: [4]int64{2765, 0, 3615, 60}},
	"tiers in-place/alloc free 48K":                           {Global: 1, Book: 2, Shard: [2]uint64{2, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 20, 30}},
	"tiers in-place/alloc free 600K":                          {Global: 2, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}}, // parent: Book 3
	"tiers in-place/carve record tombstone release 48K":       {Global: 1, Book: 2, Shard: [2]uint64{2, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 20, 30}},
	"tiers in-place/carve record tombstone release 600K":      {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}}, // parent: Book 3
	"tiers in-place/carve release 48K":                        {Global: 1, Book: 0, Shard: [2]uint64{2, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 20, 10}},
	"tiers in-place/carve release 600K":                       {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}}, // parent: Book 1
	"tiers in-place/slab carve record free":                   {Global: 1, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 75, 30}},
	"tiers in-place/slab carve release":                       {Global: 1, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 75, 10}},
	"tiers in-place/lease take and drop":                      {Global: 3, Book: 10, Shard: [2]uint64{10, 0}, Flush: [4]uint64{12, 0, 0, 0}, Fences: 12, NS: [4]int64{3780, 0, 140, 120}},
	"tiers in-place/cache overflow":                           {Global: 7, Book: 48, Shard: [2]uint64{0, 0}, Flush: [4]uint64{49, 0, 0, 0}, Fences: 49, NS: [4]int64{15865, 0, 1085, 490}},
	"tiers in-place/exhaustion sibling flush retry":           {Global: 28, Book: 2, Shard: [2]uint64{1, 1}, Flush: [4]uint64{4, 0, 0, 0}, Fences: 4, NS: [4]int64{2190, 0, 3565, 40}},      // parent: Book 3
	"degenerate in-place/alloc free 48K":                      {Global: 2, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}},          // parent: Book 3
	"degenerate in-place/alloc free 600K":                     {Global: 2, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}},          // parent: Book 3
	"degenerate in-place/carve record tombstone release 48K":  {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}},          // parent: Book 3
	"degenerate in-place/carve record tombstone release 600K": {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}},          // parent: Book 3
	"degenerate in-place/carve release 48K":                   {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},           // parent: Book 1
	"degenerate in-place/carve release 600K":                  {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},           // parent: Book 1
	"degenerate in-place/slab carve record free":              {Global: 3, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{3, 0, 0, 0}, Fences: 3, NS: [4]int64{1390, 0, 0, 30}},          // parent: Book 3
	"degenerate in-place/slab carve release":                  {Global: 2, Book: 0, Shard: [2]uint64{0, 0}, Flush: [4]uint64{1, 0, 0, 0}, Fences: 1, NS: [4]int64{265, 0, 0, 10}},           // parent: Book 1
	"degenerate in-place/lease take and drop":                 {Global: 10, Book: 10, Shard: [2]uint64{0, 0}, Flush: [4]uint64{11, 0, 0, 0}, Fences: 11, NS: [4]int64{3515, 0, 220, 110}},   // parent: Book 15
	"degenerate in-place/cache overflow":                      {Global: 72, Book: 48, Shard: [2]uint64{0, 0}, Flush: [4]uint64{49, 0, 0, 0}, Fences: 49, NS: [4]int64{15865, 0, 1265, 490}}, // parent: Book 72
	"degenerate in-place/exhaustion sibling flush retry":      {Global: 147, Book: 2, Shard: [2]uint64{0, 0}, Flush: [4]uint64{4, 0, 0, 0}, Fences: 4, NS: [4]int64{2190, 0, 3565, 40}},     // parent: Book 12
}
