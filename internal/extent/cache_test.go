package extent

import (
	"testing"

	"nvalloc/internal/blog"
	"nvalloc/internal/pmem"
)

const slabSize = 64 << 10

// TestSlabCacheBatchAmortization: N slab Gets must cost far fewer global
// Res acquisitions than N — one per batched refill — and every returned
// extent must be activated, slab-flagged and unrecorded.
func TestSlabCacheBatchAmortization(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	sc := NewSlabCache(a, slabSize)

	before := a.Res.Acquires()
	const n = 16
	var got []pmem.PAddr
	for i := 0; i < n; i++ {
		p, ok := sc.Get(c)
		if !ok {
			t.Fatalf("get %d failed", i)
		}
		got = append(got, p)
		v, ok := a.Lookup(p)
		if !ok || !v.Slab || v.Size != slabSize {
			t.Fatalf("cached extent %#x not an activated slab VEH: %+v %v", p, v, ok)
		}
	}
	acq := a.Res.Acquires() - before
	if acq >= n {
		t.Fatalf("%d gets cost %d global acquisitions; batching broken", n, acq)
	}
	// Adaptive growth: back-to-back refills must have raised the batch.
	if sc.Batch() <= minSlabBatch {
		t.Fatalf("batch still %d after %d churn gets", sc.Batch(), n)
	}
	// Unrecorded: nothing was recorded, so the bookkeeping log must hold
	// zero live records despite the activated extents.
	if n := a.book.(*blog.Sharded).Live(); n != 0 {
		t.Fatalf("cache gets produced %d bookkeeping records, want 0", n)
	}
}

// TestSlabCachePutOverflowAndFlush: overflowing Put hands extents back to
// the global free pool (reusable by Alloc) and resets the batch; Flush
// empties the cache entirely.
func TestSlabCachePutOverflowAndFlush(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	sc := NewSlabCache(a, slabSize)

	var ps []pmem.PAddr
	for i := 0; i < maxSlabBatch*3; i++ {
		p, ok := sc.Get(c)
		if !ok {
			t.Fatal("get failed")
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		sc.Put(c, p)
	}
	if sc.Len() > 2*maxSlabBatch {
		t.Fatalf("cache holds %d extents after overflow puts", sc.Len())
	}
	if sc.Batch() != minSlabBatch {
		t.Fatalf("overflow flush must reset batch, got %d", sc.Batch())
	}
	// Overflowed extents were deactivated; exactly the cached ones remain.
	active := 0
	for _, p := range ps {
		if _, ok := a.Lookup(p); ok {
			active++
		}
	}
	if active != sc.Len() {
		t.Fatalf("%d extents activated but %d cached after overflow", active, sc.Len())
	}
	sc.Flush(c)
	if sc.Len() != 0 {
		t.Fatalf("flush left %d extents cached", sc.Len())
	}
	for _, p := range ps {
		if _, ok := a.Lookup(p); ok {
			t.Fatalf("flushed extent %#x still activated", p)
		}
	}
	// The space is genuinely reusable.
	if _, err := a.Alloc(c, slabSize, 0, false); err != nil {
		t.Fatalf("alloc after flush: %v", err)
	}
}

// TestCachedExtentsFreeAfterCrash: cached (activated-but-unrecorded)
// extents must not survive a crash — Rebuild sees only recorded extents,
// and the cached space is free again.
func TestCachedExtentsFreeAfterCrash(t *testing.T) {
	dev, a, c := newAlloc(t, 64<<20)
	sc := NewSlabCache(a, slabSize)

	// One recorded extent, several cached ones.
	rec, err := a.Alloc(c, 128<<10, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var cached []pmem.PAddr
	for i := 0; i < 6; i++ {
		p, ok := sc.Get(c)
		if !ok {
			t.Fatal("get failed")
		}
		cached = append(cached, p)
	}
	c.Merge()
	dev.Crash()

	bk, recs, err := blog.Open(dev, logBase, logSize, 6, 1)
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
	}, c2, records)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a2.Lookup(rec); !ok {
		t.Fatalf("recorded extent %#x lost in rebuild", rec)
	}
	for _, p := range cached {
		if _, ok := a2.Lookup(p); ok {
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
// and fallthrough for foreign addresses.
func TestShardAllocFreeLifecycle(t *testing.T) {
	_, a, c := newAlloc(t, 128<<20)
	s := NewShards(a, 128<<20, 2)
	sh := s.Pool(0)

	var ps []pmem.PAddr
	for i := 0; i < 8; i++ {
		p, err := sh.Alloc(c, 48<<10)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Resolves(p) {
			t.Fatalf("lease map does not resolve %#x", p)
		}
		ps = append(ps, p)
	}
	// The lease VEH is hidden (Slab=true), the sub-allocs are recorded.
	allocs, _, taken, _ := sh.Stats()
	if allocs != 8 || taken == 0 {
		t.Fatalf("stats allocs=%d leases=%d", allocs, taken)
	}
	// Foreign address: not handled.
	if handled, _ := s.Free(c, heapBase+pmem.PAddr(64<<20)); handled {
		t.Fatal("free of non-lease address claimed handled")
	}
	// Frees return space; unknown in-lease addresses error but are handled.
	for _, p := range ps {
		handled, err := s.Free(c, p)
		if !handled || err != nil {
			t.Fatalf("free %#x: handled=%v err=%v", p, handled, err)
		}
	}
	if handled, err := s.Free(c, ps[0]); handled && err == nil {
		t.Fatal("double free through shard must error")
	}
	// After freeing everything the shard keeps at most one spare empty
	// lease per hysteresis; allocating again must not take a new lease.
	_, _, takenBefore, _ := sh.Stats()
	if _, err := sh.Alloc(c, 48<<10); err != nil {
		t.Fatal(err)
	}
	if _, _, takenAfter, _ := sh.Stats(); takenAfter != takenBefore {
		t.Fatal("alloc after frees leased again despite spare lease")
	}
	// Oversized requests are rejected (the caller falls back to global).
	if _, err := sh.Alloc(c, MaxShardAlloc+1); err == nil {
		t.Fatal("oversized shard alloc must fail")
	}
}

// TestShardSubAllocsSurviveCrash: recorded shard sub-allocations are
// rebuilt as ordinary global extents; the dissolved lease's remainder is
// free space.
func TestShardSubAllocsSurviveCrash(t *testing.T) {
	dev, a, c := newAlloc(t, 128<<20)
	s := NewShards(a, 128<<20, 1)
	sh := s.Pool(0)

	p1, err := sh.Alloc(c, 40<<10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sh.Alloc(c, 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.Merge()
	dev.Crash()

	bk, recs, err := blog.Open(dev, logBase, logSize, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	var records []LiveRecord
	for _, r := range recs {
		records = append(records, LiveRecord{Addr: r.Addr, Size: r.Size, Slab: r.Slab})
	}
	c2 := dev.NewCtx()
	a2, _, err := Rebuild(dev, bk, Config{
		HeapBase: heapBase,
		HeapEnd:  pmem.PAddr(dev.Size()),
		BreakPtr: brkPtr,
	}, c2, records)
	if err != nil {
		t.Fatal(err)
	}
	v1, ok1 := a2.Lookup(p1)
	v2, ok2 := a2.Lookup(p2)
	if !ok1 || v1.Size != 40<<10 || v1.Slab {
		t.Fatalf("sub-alloc %#x: %+v %v", p1, v1, ok1)
	}
	if !ok2 || v2.Size != 200<<10 || v2.Slab {
		t.Fatalf("sub-alloc %#x: %+v %v", p2, v2, ok2)
	}
	// They free through the ordinary global path now.
	if err := a2.Free(c2, p1); err != nil {
		t.Fatal(err)
	}
	if err := a2.Free(c2, p2); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBatchTombstones: FreeBatch kills all records in one batch; the
// extents coalesce back and a rebuild sees none of them.
func TestFreeBatchTombstones(t *testing.T) {
	dev, a, c := newAlloc(t, 64<<20)
	var ps []pmem.PAddr
	for i := 0; i < 5; i++ {
		p, err := a.Alloc(c, 32<<10, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := a.FreeBatch(c, ps); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if _, ok := a.Lookup(p); ok {
			t.Fatalf("%#x still activated after FreeBatch", p)
		}
	}
	c.Merge()
	dev.Crash()
	_, recs, err := blog.Open(dev, logBase, logSize, 6, 1)
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
