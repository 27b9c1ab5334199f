package extent

import (
	"sync"
	"testing"

	"nvalloc/internal/blog"
	"nvalloc/internal/pmem"
)

const slabSize = 64 << 10

// TestSlabCacheBatchAmortization: N slab carves must cost far fewer global
// Res acquisitions than N — one per batched refill — and every returned
// extent must be activated, slab-flagged and unrecorded.
func TestSlabCacheBatchAmortization(t *testing.T) {
	_, a, c := newTiered(t, 64<<20, Tiers{Caches: 1, SlabSize: slabSize})
	sc := a.caches[0]

	before := a.pool.Res.Acquires()
	const n = 16
	for i := 0; i < n; i++ {
		p, err := a.Carve(c, 0, slabSize, true)
		if err != nil {
			t.Fatalf("carve %d: %v", i, err)
		}
		size, slab, ok := a.pool.lookup(p)
		if !ok || !slab || size != slabSize {
			t.Fatalf("cached extent %#x not an activated slab extent: size %d, slab %v, activated %v", p, size, slab, ok)
		}
	}
	acq := a.pool.Res.Acquires() - before
	if acq >= n {
		t.Fatalf("%d carves cost %d global acquisitions; batching broken", n, acq)
	}
	// Adaptive growth: back-to-back refills must have raised the batch.
	if sc.batch <= minSlabBatch {
		t.Fatalf("batch still %d after %d churn carves", sc.batch, n)
	}
	// Unrecorded: nothing was recorded, so the bookkeeping log must hold
	// zero live records despite the activated extents.
	if n := a.pool.book.(*blog.Log).Live(); n != 0 {
		t.Fatalf("cache carves produced %d bookkeeping records, want 0", n)
	}
}

// TestSlabCachePutOverflowAndFlush: a release that overflows the cache
// hands extents back to the global free pool (reusable by Alloc) and resets
// the batch; a flush empties the cache entirely.
func TestSlabCachePutOverflowAndFlush(t *testing.T) {
	_, a, c := newTiered(t, 64<<20, Tiers{Caches: 1, SlabSize: slabSize})
	sc := a.caches[0]

	var ps []pmem.PAddr
	for i := 0; i < maxSlabBatch*3; i++ {
		p, err := a.Carve(c, 0, slabSize, true)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if err := a.Release(c, 0, p, true); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.free) > 2*maxSlabBatch {
		t.Fatalf("cache holds %d extents after overflow puts", len(sc.free))
	}
	if sc.batch != minSlabBatch {
		t.Fatalf("overflow flush must reset batch, got %d", sc.batch)
	}
	// Overflowed extents were deactivated; exactly the cached ones remain.
	active := 0
	for _, p := range ps {
		if _, _, ok := a.pool.lookup(p); ok {
			active++
		}
	}
	if active != len(sc.free) {
		t.Fatalf("%d extents activated but %d cached after overflow", active, len(sc.free))
	}
	if !a.flushCaches(c, -1) || len(sc.free) != 0 {
		t.Fatalf("flush left %d extents cached", len(sc.free))
	}
	for _, p := range ps {
		if _, _, ok := a.pool.lookup(p); ok {
			t.Fatalf("flushed extent %#x still activated", p)
		}
	}
	if a.LeaseOverhead() != 0 {
		t.Fatalf("an empty cache still counts %d bytes of overhead", a.LeaseOverhead())
	}
	// The space is genuinely reusable.
	if _, err := a.Alloc(c, 0, slabSize); err != nil {
		t.Fatalf("alloc after flush: %v", err)
	}
}

// reopen crashes dev and rebuilds the degenerate allocator from the
// bookkeeping log, as recovery does.
func reopen(t *testing.T, dev *pmem.Device, c *pmem.Ctx) (*Allocator, []LiveRecord, *pmem.Ctx) {
	t.Helper()
	c.Merge()
	dev.Crash()
	bk, recs, err := blog.Open(dev, logBase, logSize, 6)
	if err != nil {
		t.Fatal(err)
	}
	var records []LiveRecord
	for _, r := range recs {
		records = append(records, LiveRecord{Addr: r.Addr, Size: r.Size, Slab: r.Slab})
	}
	c2 := dev.NewCtx()
	a2, live, err := Rebuild(dev, bk, Config{
		HeapBase: heapBase,
		HeapEnd:  pmem.PAddr(dev.Size()),
		BreakPtr: brkPtr,
	}, Tiers{}, c2, records)
	if err != nil {
		t.Fatal(err)
	}
	return a2, live, c2
}

// TestCachedExtentsFreeAfterCrash: cached (activated-but-unrecorded)
// extents must not survive a crash — Rebuild sees only recorded extents,
// and the cached space is free again.
func TestCachedExtentsFreeAfterCrash(t *testing.T) {
	dev, a, c := newTiered(t, 64<<20, Tiers{Caches: 1, SlabSize: slabSize})

	// One recorded extent, several cached ones.
	rec, err := a.Alloc(c, 0, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	var cached []pmem.PAddr
	for i := 0; i < 6; i++ {
		p, err := a.Carve(c, 0, slabSize, true)
		if err != nil {
			t.Fatal(err)
		}
		cached = append(cached, p)
	}
	a2, live, _ := reopen(t, dev, c)
	if _, _, ok := a2.pool.lookup(rec); !ok {
		t.Fatalf("recorded extent %#x lost in rebuild", rec)
	}
	for _, p := range cached {
		if _, _, ok := a2.pool.lookup(p); ok {
			t.Fatalf("cached extent %#x resurrected by rebuild", p)
		}
	}
	for _, v := range live {
		for _, p := range cached {
			if v.Addr == p {
				t.Fatalf("cached extent %#x in live set", p)
			}
		}
	}
}

// TestShardAllocFreeLifecycle covers the shard pool: lease acquisition,
// in-lease carve/coalesce, the lease page map, keep-one-spare hysteresis
// and fallthrough to the global pool for foreign addresses and oversized
// requests.
func TestShardAllocFreeLifecycle(t *testing.T) {
	_, a, c := newTiered(t, 128<<20, Tiers{Pools: 2})
	sh := a.shards[0]

	var ps []pmem.PAddr
	for i := 0; i < 8; i++ {
		p, err := a.Alloc(c, 0, 48<<10)
		if err != nil {
			t.Fatal(err)
		}
		if size, ok := a.Live(p); !ok || size != 48<<10 || a.leases.Lookup(p) == nil {
			t.Fatalf("lease map does not resolve %#x", p)
		}
		ps = append(ps, p)
	}
	// The lease VEH is hidden (Slab=true), the sub-allocs are recorded.
	if len(sh.allocated) != 8 || sh.leasesTaken == 0 {
		t.Fatalf("shard holds %d sub-allocations in %d leases", len(sh.allocated), sh.leasesTaken)
	}
	if n := a.pool.book.(*blog.Log).Live(); n != 8 {
		t.Fatalf("%d bookkeeping records for 8 sub-allocations", n)
	}
	// Foreign address: the global pool's to refuse, not the shard's.
	acq := sh.Res.Acquires()
	if err := a.Free(c, 0, heapBase+pmem.PAddr(64<<20), false); err == nil || sh.Res.Acquires() != acq {
		t.Fatalf("free of a non-lease address: err=%v, shard acquired %d times", err, sh.Res.Acquires()-acq)
	}
	// Frees return space; unknown in-lease addresses error.
	for _, p := range ps {
		if err := a.Free(c, 0, p, false); err != nil {
			t.Fatalf("free %#x: %v", p, err)
		}
	}
	if err := a.Free(c, 0, ps[0], false); err == nil {
		t.Fatal("double free through shard must error")
	}
	// After freeing everything the shard keeps at most one spare empty
	// lease per hysteresis; allocating again must not take a new lease.
	takenBefore := sh.leasesTaken
	if _, err := a.Alloc(c, 0, 48<<10); err != nil {
		t.Fatal(err)
	}
	if sh.leasesTaken != takenBefore {
		t.Fatal("alloc after frees leased again despite spare lease")
	}
	// Oversized requests are the global pool's.
	acq = sh.Res.Acquires()
	p, err := a.Alloc(c, 0, MaxShardAlloc+1)
	if _, _, global := a.pool.lookup(p); err != nil || !global || sh.Res.Acquires() != acq {
		t.Fatalf("oversized alloc: err=%v, in global pool=%v, shard acquired %d times", err, global, sh.Res.Acquires()-acq)
	}
}

// TestShardSubAllocsSurviveCrash: recorded shard sub-allocations are
// rebuilt as ordinary global extents; the dissolved lease's remainder is
// free space.
func TestShardSubAllocsSurviveCrash(t *testing.T) {
	dev, a, c := newTiered(t, 128<<20, Tiers{Pools: 1})

	p1, err := a.Alloc(c, 0, 40<<10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(c, 0, 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, c2 := reopen(t, dev, c)
	size1, slab1, ok1 := a2.pool.lookup(p1)
	size2, slab2, ok2 := a2.pool.lookup(p2)
	if !ok1 || size1 != 40<<10 || slab1 {
		t.Fatalf("sub-alloc %#x: size %d, slab %v, activated %v", p1, size1, slab1, ok1)
	}
	if !ok2 || size2 != 200<<10 || slab2 {
		t.Fatalf("sub-alloc %#x: size %d, slab %v, activated %v", p2, size2, slab2, ok2)
	}
	// They free through the ordinary global path now.
	if err := a2.Free(c2, 0, p1, false); err != nil {
		t.Fatal(err)
	}
	if err := a2.Free(c2, 0, p2, false); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBatchTombstones: FreeBatch kills all records in one batch; the
// extents coalesce back and a rebuild sees none of them.
func TestFreeBatchTombstones(t *testing.T) {
	dev, a, c := newAlloc(t, 64<<20)
	var ps []pmem.PAddr
	for i := 0; i < 5; i++ {
		p, err := a.Alloc(c, 0, 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := a.FreeBatch(c, ps); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if _, _, ok := a.pool.lookup(p); ok {
			t.Fatalf("%#x still activated after FreeBatch", p)
		}
	}
	c.Merge()
	dev.Crash()
	_, recs, err := blog.Open(dev, logBase, logSize, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for _, p := range ps {
			if r.Addr == p {
				t.Fatalf("batch-freed extent %#x still recorded", p)
			}
		}
	}
}

// TestLeaseDropRacesFree: a free finds its lease without a lock and must
// revalidate it under the shard's, because the lease may have been dropped —
// or leased again — in between. Workers allocate lease-filling extents and
// hand them to a neighbour to free, so leases are taken and dropped under
// the lookups all the time (run with -race).
func TestLeaseDropRacesFree(t *testing.T) {
	dev, a, _ := newTiered(t, 256<<20, Tiers{Pools: 1})
	const workers, rounds, perLease = 4, 200, LeaseSize / MaxShardAlloc
	pipes := make([]chan pmem.PAddr, workers)
	for i := range pipes {
		pipes[i] = make(chan pmem.PAddr, perLease) // a round's extents, so no sender waits on its own receiver
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dev.NewCtx()
			next := pipes[(w+1)%workers]
			for r := 0; r < rounds; r++ {
				for i := 0; i < perLease; i++ {
					p, err := a.Alloc(c, w, MaxShardAlloc)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					next <- p
				}
				for i := 0; i < perLease; i++ {
					if err := a.Free(c, w, <-pipes[w], false); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	sh := a.shards[0]
	if len(sh.allocated) != 0 || sh.leasesReturned == 0 {
		t.Fatalf("%d sub-allocations left, %d leases dropped", len(sh.allocated), sh.leasesReturned)
	}
	if got, want := a.LeaseOverhead(), uint64(len(sh.leases))*LeaseSize; got != want {
		t.Fatalf("%d idle bytes with %d empty leases held", got, len(sh.leases))
	}
}
