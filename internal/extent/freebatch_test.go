package extent

import (
	"testing"

	"nvalloc/internal/blog"
	"nvalloc/internal/pmem"
)

// TestFreeBatchAppliesPersistedPrefix: when the bookkeeper fails partway
// through a FreeBatch, the tombstones it did persist are final (and the
// log has dropped those addresses from its index), so exactly those
// extents must leave the activated set. Otherwise they sit activated with
// no record — unreachable until restart, and a later Free of one fails
// with "free of unrecorded extent".
func TestFreeBatchAppliesPersistedPrefix(t *testing.T) {
	// The log never runs out of room for a tombstone, so its only failure
	// is an address it holds no record of: plant one, activated but never
	// recorded, in the middle of the batch.
	t.Run("Log", func(t *testing.T) {
		dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
		size := 5 * uint64(blog.ChunkSize)
		bk := blog.New(dev.Mem(), logBase, size, 6)
		a := New(dev, bk, Config{HeapBase: heapBase, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}, Tiers{})
		c := dev.NewCtx()
		var ps []pmem.PAddr
		for i := 0; i < 6; i++ {
			p, err := a.Alloc(c, 0, 32<<10)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		bad, err := a.Carve(c, 0, 32<<10, false)
		if err != nil {
			t.Fatal(err)
		}
		batch := append(append(append([]pmem.PAddr{}, ps[:3]...), bad), ps[3:]...)
		if err := a.FreeBatch(c, batch); err == nil {
			t.Fatal("FreeBatch accepted an extent the log holds no record of")
		}
		for i, p := range batch {
			if _, _, activated := a.pool.lookup(p); activated != (i >= 3) {
				t.Fatalf("extent %d: activated=%v, want the three before the failure freed and the rest kept", i, activated)
			}
		}
		// Activated and recorded must agree, extent by extent.
		c.Merge()
		dev.Crash()
		_, recs, err := blog.Open(dev, logBase, size, 6)
		if err != nil {
			t.Fatal(err)
		}
		recorded := map[pmem.PAddr]bool{}
		for _, r := range recs {
			recorded[r.Addr] = true
		}
		for _, p := range ps {
			if _, _, activated := a.pool.lookup(p); activated != recorded[p] {
				t.Fatalf("extent %#x: activated=%v but recorded=%v", p, activated, recorded[p])
			}
		}
	})

	// In-place headers cannot fill up; its only failure is an address with
	// no header slot, so plant one (inside a chunk's header table) in the
	// middle of the batch.
	t.Run("InPlace", func(t *testing.T) {
		dev, bk, a, c := newInPlaceAlloc(t, 64<<20)
		var ps []pmem.PAddr
		for i := 0; i < 6; i++ {
			p, err := a.Alloc(c, 0, 16<<10)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		bad := heapBase + PageSize
		a.pool.activated[bad] = &VEH{Addr: bad, Size: PageSize}
		batch := append(append(append([]pmem.PAddr{}, ps[:3]...), bad), ps[3:]...)
		if err := a.FreeBatch(c, batch); err == nil {
			t.Fatal("FreeBatch accepted an address with no header slot")
		}
		for i, p := range ps {
			if _, _, activated := a.pool.lookup(p); activated != (i >= 3) {
				t.Fatalf("extent %d: activated=%v, want the three before the failure freed and the rest kept", i, activated)
			}
		}
		dev.Crash()
		live := bk.Recover(dev.NewCtx())
		if len(live) != 3 {
			t.Fatalf("recovered %d header records, want the 3 extents still activated: %+v", len(live), live)
		}
		for i, r := range live {
			if r.Addr != ps[3+i] {
				t.Fatalf("recovered record %#x, want %#x", r.Addr, ps[3+i])
			}
		}
	})
}
