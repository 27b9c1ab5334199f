package extent

import (
	"fmt"
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
	// The log cases size each shard to four chunks and record extents until
	// one shard has less than a chunk of slots left: its tombstones then
	// exhaust the region before the oldest chunk drains and can be recycled.
	logCase := func(shards int) func(t *testing.T) {
		return func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
			size := uint64(shards) * 5 * blog.ChunkSize // header + 4 chunks per shard
			bk := blog.New(dev.Mem(), logBase, size, 6, shards)
			a := New(dev, bk, Config{HeapBase: heapBase, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}, Tiers{})
			c := dev.NewCtx()
			nearlyFull := 4*bk.EntriesPerChunk() - bk.EntriesPerChunk()/2
			var ps []pmem.PAddr
			for fullest := 0; fullest < nearlyFull; {
				p, err := a.Alloc(c, 0, 32<<10)
				if err != nil {
					t.Fatalf("alloc %d: %v", len(ps), err)
				}
				ps = append(ps, p)
				if n := bk.Shard(blog.ShardIndex(p, shards)).Live(); n > fullest {
					fullest = n
				}
			}
			err := a.FreeBatch(c, ps)
			if err == nil {
				t.Fatal("FreeBatch succeeded; the log region was meant to fill mid-batch")
			}
			freed := 0
			for _, p := range ps {
				if _, _, ok := a.pool.lookup(p); !ok {
					freed++
				}
			}
			if freed == 0 || freed == len(ps) {
				t.Fatalf("mid-batch failure (%v) freed %d of %d extents, want a strict prefix", err, freed, len(ps))
			}
			// Activated and recorded must agree, extent by extent.
			c.Merge()
			dev.Crash()
			_, recs, err := blog.Open(dev, logBase, size, 6, shards)
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
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Sharded%d", shards), logCase(shards))
	}

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
