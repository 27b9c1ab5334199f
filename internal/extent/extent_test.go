package extent

import (
	"math/rand"
	"strings"
	"testing"

	"nvalloc/internal/blog"
	"nvalloc/internal/pmem"
)

const (
	heapBase = pmem.PAddr(4 << 20) // 4 MiB: chunk aligned
	brkPtr   = pmem.PAddr(4096)
	logBase  = pmem.PAddr(8192)
	logSize  = 512 * blog.ChunkSize
)

// newAlloc builds the degenerate front door: every verb is one critical
// section of the global pool.
func newAlloc(t *testing.T, devSize uint64) (*pmem.Device, *Allocator, *pmem.Ctx) {
	return newTiered(t, devSize, Tiers{})
}

func newTiered(t *testing.T, devSize uint64, tiers Tiers) (*pmem.Device, *Allocator, *pmem.Ctx) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: devSize, Strict: true})
	bk := blog.New(dev.Mem(), logBase, logSize, 6)
	a := New(dev, bk, Config{
		HeapBase: heapBase,
		HeapEnd:  pmem.PAddr(dev.Size()),
		BreakPtr: brkPtr,
	}, tiers)
	return dev, a, dev.NewCtx()
}

func TestAllocFreeRoundtrip(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	p1, err := a.Alloc(c, 0, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(c, 0, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 || p1 < heapBase || p2 < heapBase {
		t.Fatalf("bad extents %#x %#x", p1, p2)
	}
	size, _, ok := a.pool.lookup(p1)
	if !ok || size != 32<<10 {
		t.Fatalf("lookup: size %d, activated %v", size, ok)
	}
	if err := a.Free(c, 0, p1, false); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.pool.lookup(p1); ok {
		t.Fatal("freed extent still activated")
	}
	if err := a.Free(c, 0, p1, false); err == nil {
		t.Fatal("double free must error")
	}
}

func TestSizeRoundingAndAlignment(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	p, err := a.Alloc(c, 0, 100) // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	if size, _, _ := a.pool.lookup(p); size != PageSize {
		t.Fatalf("size not page rounded: %d", size)
	}
	// Slab extents need 64 KiB alignment.
	s, err := a.Global().Alloc(c, 64<<10, 64<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if s%(64<<10) != 0 {
		t.Fatalf("slab extent %#x not aligned", s)
	}
	if _, slab, _ := a.pool.lookup(s); !slab {
		t.Fatal("slab flag lost")
	}
}

func TestBestFitPrefersSmallest(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	// Create free extents of 32K, 64K, 128K via alloc+free.
	var ptrs []pmem.PAddr
	for _, sz := range []uint64{32 << 10, 64 << 10, 128 << 10, 1 << 20} {
		p, err := a.Alloc(c, 0, sz)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free the 64K and 128K ones; they are not adjacent (32K & 1M stay
	// live between them).
	if err := a.Free(c, 0, ptrs[1], false); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(c, 0, ptrs[2], false); err != nil {
		t.Fatal(err)
	}
	// A 48K request must reuse the 64K hole (best fit), not the 128K one.
	p, err := a.Alloc(c, 0, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	if p != ptrs[1] {
		t.Fatalf("best fit picked %#x, want %#x", p, ptrs[1])
	}
}

func TestSplitProducesTailRemainder(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	p, err := a.Alloc(c, 0, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(c, 0, p, false); err != nil {
		t.Fatal(err)
	}
	splits := a.pool.splits
	q, err := a.Alloc(c, 0, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("should reuse freed extent head: %#x vs %#x", q, p)
	}
	if a.pool.splits <= splits {
		t.Fatal("no split recorded")
	}
}

func TestCoalesceNeighbors(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	p1, _ := a.Alloc(c, 0, 64<<10)
	p2, _ := a.Alloc(c, 0, 64<<10)
	p3, _ := a.Alloc(c, 0, 64<<10)
	if p2 != p1+64<<10 || p3 != p2+64<<10 {
		t.Skipf("extents not adjacent (%#x %#x %#x)", p1, p2, p3)
	}
	for _, p := range []pmem.PAddr{p1, p3, p2} {
		if err := a.Free(c, 0, p, false); err != nil {
			t.Fatal(err)
		}
	}
	if a.pool.coalesces == 0 {
		t.Fatal("no coalescing happened")
	}
	// The merged hole must satisfy one big allocation without growing.
	grows := a.pool.grows
	if _, err := a.Alloc(c, 0, 192<<10); err != nil {
		t.Fatal(err)
	}
	if a.pool.grows != grows {
		t.Fatal("coalesced hole not reused")
	}
}

func TestHeapExhaustion(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 16 << 20})
	bk := blog.New(dev.Mem(), logBase, logSize, 6)
	a := New(dev, bk, Config{HeapBase: heapBase, HeapEnd: 12 << 20, BreakPtr: brkPtr}, Tiers{})
	c := dev.NewCtx()
	if _, err := a.Alloc(c, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(c, 0, 8<<20); err == nil {
		t.Fatal("expected exhaustion")
	}
	if _, err := a.Alloc(c, 0, 0); err == nil {
		t.Fatal("zero-size alloc must error")
	}
}

func TestUsedAndPeakAccounting(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	u0 := a.Used()
	p, _ := a.Alloc(c, 0, 1<<20)
	if a.Used() <= u0 {
		t.Fatal("Used must grow on alloc")
	}
	peak := a.Peak()
	if err := a.Free(c, 0, p, false); err != nil {
		t.Fatal(err)
	}
	if a.Peak() != peak {
		t.Fatal("peak must not drop on free")
	}
	a.ResetPeak()
	if a.Peak() != a.Used() {
		t.Fatal("ResetPeak must snap to current usage")
	}
}

func TestDecayDemotesIdleExtents(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	p, _ := a.Alloc(c, 0, 1<<20)
	// The rest of the growth starts retained: nothing has touched it.
	if rec, ret := a.pool.reclaimedBytes.Load(), a.pool.retainedBytes; rec != 0 || ret != ChunkSize-1<<20 {
		t.Fatalf("after the first growth: %d bytes reclaimed and %d retained, want 0 and %d", rec, ret, ChunkSize-1<<20)
	}
	if err := a.Free(c, 0, p, false); err != nil {
		t.Fatal(err)
	}
	// state is the free state of the extent that held data.
	state := func() State {
		v, ok := a.pool.byAddr.Get(p)
		if !ok || v.Addr != p || v.Size != 1<<20 {
			t.Fatalf("freed extent %#x is not a free extent of its own: %+v", p, v)
		}
		return v.State
	}
	rec0 := a.pool.reclaimedBytes.Load()
	if rec0 != 1<<20 || state() != Reclaimed {
		t.Fatalf("freed bytes must be reclaimed: %d reclaimed, extent %v", rec0, state())
	}
	// Let a full decay window of virtual time pass.
	c.Charge(pmem.CatOther, DecayWindowNS+DecayEpochNS)
	a.pool.decayTick(c)
	rec1 := a.pool.reclaimedBytes.Load()
	if rec1 >= rec0 {
		t.Fatalf("decay did not demote reclaimed bytes: %d -> %d", rec0, rec1)
	}
	if s := state(); s != Retained {
		t.Fatalf("the extent that held data decayed to %v, want retained", s)
	}
	// And Used drops, because retained memory is unmapped.
	// (metaBytes unchanged, activated unchanged.)
	if a.Used() > a.pool.metaBytes.Load()+a.pool.activatedBytes.Load()+rec1 {
		t.Fatal("used accounting inconsistent")
	}
	// A second full window releases retained memory to the OS.
	ret1 := a.pool.retainedBytes
	c.Charge(pmem.CatOther, DecayWindowNS+DecayEpochNS)
	a.pool.decayTick(c)
	if ret2 := a.pool.retainedBytes; ret2 >= ret1 || state() != Released {
		t.Fatalf("retained bytes not released: %d -> %d, extent %v", ret1, ret2, state())
	}
}

func TestRetainedAndReleasedAreReusable(t *testing.T) {
	_, a, c := newAlloc(t, 64<<20)
	p, _ := a.Alloc(c, 0, 1<<20)
	if err := a.Free(c, 0, p, false); err != nil {
		t.Fatal(err)
	}
	c.Charge(pmem.CatOther, 2*DecayWindowNS)
	a.pool.decayTick(c)
	c.Charge(pmem.CatOther, 2*DecayWindowNS)
	a.pool.decayTick(c)
	grows := a.pool.grows
	// Everything is retained/released now, but allocation must still
	// succeed without growing the heap (remap).
	q, err := a.Alloc(c, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if a.pool.grows != grows {
		t.Fatalf("allocation grew the heap instead of reusing unmapped extents (%#x)", q)
	}
}

func TestSmootherstep(t *testing.T) {
	if Smootherstep(0) != 0 || Smootherstep(1) != 1 {
		t.Fatal("endpoints wrong")
	}
	if Smootherstep(-5) != 0 || Smootherstep(5) != 1 {
		t.Fatal("clamping wrong")
	}
	if s := Smootherstep(0.5); s < 0.49 || s > 0.51 {
		t.Fatalf("midpoint %f", s)
	}
	// Monotonicity.
	prev := 0.0
	for i := 0; i <= 100; i++ {
		v := Smootherstep(float64(i) / 100)
		if v < prev {
			t.Fatal("not monotone")
		}
		prev = v
	}
}

func TestRebuildFromRecords(t *testing.T) {
	dev, a, c := newAlloc(t, 64<<20)
	type ext struct {
		addr pmem.PAddr
		size uint64
	}
	var live []ext
	var all []pmem.PAddr
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		sz := uint64(rng.Intn(64)+4) << 12
		p, err := a.Global().Alloc(c, sz, 0, rng.Intn(5) == 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
		live = append(live, ext{p, sz})
	}
	// Free a third.
	for i := 0; i < len(all); i += 3 {
		if err := a.Free(c, 0, all[i], false); err != nil {
			t.Fatal(err)
		}
	}
	var want []ext
	for i, e := range live {
		if i%3 != 0 {
			want = append(want, e)
		}
	}
	usedBefore := a.Used()
	dev.Crash()

	// Recover the bookkeeping log and rebuild.
	bk, recs, err := blog.Open(dev, logBase, logSize, 6)
	if err != nil {
		t.Fatal(err)
	}
	lrs := make([]LiveRecord, len(recs))
	for i, r := range recs {
		lrs[i] = LiveRecord{Addr: r.Addr, Size: r.Size, Slab: r.Slab}
	}
	c2 := dev.NewCtx()
	a2, records, err := Rebuild(dev, bk, Config{
		HeapBase: heapBase,
		HeapEnd:  pmem.PAddr(dev.Size()),
		BreakPtr: brkPtr,
	}, Tiers{}, c2, lrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(want) {
		t.Fatalf("rebuilt %d live extents, want %d", len(records), len(want))
	}
	for _, e := range want {
		size, _, ok := a2.pool.lookup(e.addr)
		if !ok || size != e.size {
			t.Fatalf("extent %#x missing or wrong size after rebuild", e.addr)
		}
	}
	// Gap reconstruction: usage should match (within the reclaimed-vs-
	// retained accounting difference, which recovery folds into
	// reclaimed).
	if a2.Used() < usedBefore/2 {
		t.Fatalf("rebuild lost free-space accounting: %d vs %d", a2.Used(), usedBefore)
	}
	// The rebuilt allocator must be able to allocate from recovered gaps.
	if _, err := a2.Alloc(c2, 0, 32<<10); err != nil {
		t.Fatal(err)
	}
	// And freeing a recovered extent works.
	if err := a2.Free(c2, 0, want[0].addr, false); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredRecordsIndexOnFirstFree: Rebuild gives no record an entry.
// Live, Each, Len and Used answer for the records all the same; the first
// free of one gives it its entry, and a second free of it, or a free of an
// address inside another that is not its start, is a free of an unknown
// extent that indexes nothing.
func TestRecoveredRecordsIndexOnFirstFree(t *testing.T) {
	dev, a, c := newAlloc(t, 64<<20)
	var ps []pmem.PAddr
	for i := 0; i < 3; i++ {
		p, err := a.Alloc(c, 0, uint64(i+1)*32<<10)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	used := a.Used()
	a2, _, c2 := reopen(t, dev, c)
	if len(a2.pool.activated) != 0 || a2.Indexed() != 0 {
		t.Fatalf("Rebuild built %d entries", len(a2.pool.activated))
	}
	if n := a2.Global().Len(); n != len(ps) {
		t.Fatalf("Len %d, want the %d records", n, len(ps))
	}
	each := map[pmem.PAddr]uint64{}
	a2.Each(func(addr pmem.PAddr, size uint64) { each[addr] = size })
	for i, p := range ps {
		if size, ok := a2.Live(p); !ok || size != uint64(i+1)*32<<10 || each[p] != size {
			t.Fatalf("record %#x: Live %d %v, Each %d", p, size, ok, each[p])
		}
	}
	if a2.Used() != used {
		t.Fatalf("Used %d after rebuild, %d before the crash", a2.Used(), used)
	}
	if err := a2.Free(c2, 0, ps[0], false); err != nil {
		t.Fatal(err)
	}
	if a2.Indexed() != 1 {
		t.Fatalf("%d records indexed after one free", a2.Indexed())
	}
	for _, bad := range []pmem.PAddr{ps[0], ps[1] + PageSize} {
		if err := a2.Free(c2, 0, bad, false); err == nil || !strings.Contains(err.Error(), "free of unknown extent") {
			t.Fatalf("free of %#x: %v, want a free of an unknown extent", bad, err)
		}
	}
	if _, ok := a2.Live(ps[1]); !ok || a2.Indexed() != 1 || a2.Global().Len() != len(ps)-1 {
		t.Fatalf("after the failed frees: %#x live %v, %d indexed, Len %d", ps[1], ok, a2.Indexed(), a2.Global().Len())
	}
}

func TestInPlaceBookkeeper(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	bk := NewInPlace(dev, heapBase, brkPtr)
	a := New(dev, bk, Config{HeapBase: heapBase, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}, Tiers{})
	c := dev.NewCtx()
	p1, err := a.Alloc(c, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Global().Alloc(c, 32<<10, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(c, 0, p1, false); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	recs := bk.Recover(dev.NewCtx())
	if len(recs) != 1 || recs[0].Addr != p2 || !recs[0].Slab || recs[0].Size != 32<<10 {
		t.Fatalf("in-place recovery wrong: %+v", recs)
	}
	// The first data page of a chunk starts after the header table.
	if p1 < heapBase+HeaderBytes {
		t.Fatalf("extent %#x inside header table", p1)
	}
}

func TestInPlaceWritesAreRandomFlushes(t *testing.T) {
	// Scattered allocs and frees with in-place headers must produce
	// random metadata flushes; the log produces (mostly) sequential ones.
	run := func(useLog bool) (randRatio float64) {
		dev := pmem.New(pmem.Config{Size: 256 << 20})
		var bk Bookkeeper
		if useLog {
			bk = blog.New(dev.Mem(), logBase, logSize, 6)
		} else {
			bk = NewInPlace(dev, heapBase, brkPtr)
		}
		a := New(dev, bk, Config{HeapBase: heapBase, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}, Tiers{})
		c := dev.NewCtx()
		rng := rand.New(rand.NewSource(5))
		var held []pmem.PAddr
		for i := 0; i < 2000; i++ {
			if len(held) == 0 || rng.Intn(100) < 55 {
				p, err := a.Alloc(c, 0, uint64(rng.Intn(120)+8)<<12)
				if err != nil {
					break
				}
				held = append(held, p)
			} else {
				i := rng.Intn(len(held))
				if err := a.Free(c, 0, held[i], false); err != nil {
					break
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		}
		s := c.Local()
		total := s.RandFlushes + s.SeqFlushes
		if total == 0 {
			return 0
		}
		return float64(s.RandFlushes) / float64(total)
	}
	inplace, logged := run(false), run(true)
	if inplace <= logged {
		t.Fatalf("in-place should be more random than logged: %f vs %f", inplace, logged)
	}
}
