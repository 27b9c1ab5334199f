package extent

import (
	"testing"

	"nvalloc/internal/pmem"
)

func newInPlaceAlloc(t *testing.T, devSize uint64) (*pmem.Device, *InPlace, *Allocator, *pmem.Ctx) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: devSize, Strict: true})
	bk := NewInPlace(dev, heapBase, brkPtr)
	a := New(dev, bk, Config{
		HeapBase: heapBase,
		HeapEnd:  pmem.PAddr(dev.Size()),
		BreakPtr: brkPtr,
	}, Tiers{})
	return dev, bk, a, dev.NewCtx()
}

// TestInPlaceRecordGroups: the in-place bookkeeper fences every alloc
// record on its own, clears a group of header slots under one trailing
// fence, and Recover sees exactly the surviving records.
func TestInPlaceRecordGroups(t *testing.T) {
	dev, bk, _, c := newInPlaceAlloc(t, 64<<20)
	data := heapBase + pmem.PAddr(HeaderBytes)
	recs := []LiveRecord{
		{Addr: data, Size: 4096},
		{Addr: data + 4096, Size: 8192, Slab: true},
		{Addr: data + 16384, Size: 4096},
	}
	f0 := c.Local().Fences
	for _, r := range recs {
		if err := bk.RecordAlloc(c, r.Addr, r.Size, r.Slab); err != nil {
			t.Fatal(err)
		}
	}
	if fences := c.Local().Fences - f0; fences != uint64(len(recs)) {
		t.Fatalf("%d alloc records issued %d fences, want one each", len(recs), fences)
	}
	f0 = c.Local().Fences
	if n, err := bk.RecordFree(c, []pmem.PAddr{data, data + 16384}); err != nil || n != 2 {
		t.Fatalf("free group persisted %d of 2: %v", n, err)
	}
	if fences := c.Local().Fences - f0; fences != 1 {
		t.Fatalf("free group issued %d fences, want 1", fences)
	}
	dev.Crash()
	live := bk.Recover(dev.NewCtx())
	if len(live) != 1 || live[0].Addr != data+4096 || live[0].Size != 8192 || !live[0].Slab {
		t.Fatalf("recover after batches: %+v", live)
	}
}

// TestInPlaceFreeBatchThroughAllocator: Allocator.FreeBatch groups the
// tombstones for the in-place scheme too — all records die, the space
// coalesces, and fences stay amortized.
func TestInPlaceFreeBatchThroughAllocator(t *testing.T) {
	dev, bk, a, c := newInPlaceAlloc(t, 64<<20)
	var ps []pmem.PAddr
	for i := 0; i < 6; i++ {
		p, err := a.Alloc(c, 0, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	perFree := func() uint64 {
		// One extent freed individually costs at least one fence.
		f0 := c.Local().Fences
		if err := a.Free(c, 0, ps[0], false); err != nil {
			t.Fatal(err)
		}
		return c.Local().Fences - f0
	}()
	f0 := c.Local().Fences
	if err := a.FreeBatch(c, ps[1:]); err != nil {
		t.Fatal(err)
	}
	batchFences := c.Local().Fences - f0
	if batchFences >= perFree*uint64(len(ps)-1) {
		t.Fatalf("batch free of %d cost %d fences vs %d per single free; not amortized",
			len(ps)-1, batchFences, perFree)
	}
	for _, p := range ps {
		if _, _, ok := a.pool.lookup(p); ok {
			t.Fatalf("%#x still activated after batch free", p)
		}
	}
	dev.Crash()
	if live := bk.Recover(dev.NewCtx()); len(live) != 0 {
		t.Fatalf("records survived batch free: %+v", live)
	}
}
