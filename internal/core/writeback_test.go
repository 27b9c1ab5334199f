package core

import (
	"errors"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// TestReleasedSlabReformattedByLowerArena: arena 1 releases a slab whose
// bit entries are still above its ring's checkpoint, arena 0 formats the
// same base in the same class and publishes a block there. Replay runs
// rings in arena order, so arena 1's stale free would be applied over
// arena 0's live block unless the release voided it.
func TestReleasedSlabReformattedByLowerArena(t *testing.T) {
	dev, h := newHeap(t, LOG, func(o *Options) {
		o.Arenas = 2
		o.NoExtentCache = true // a released extent goes straight back to the global pool
		o.Morphing = false
	})
	thB := h.NewThread().(*Thread) // arena 0
	thA := h.NewThread().(*Thread) // arena 1
	if thB.arena.index != 0 || thA.arena.index != 1 {
		t.Fatalf("arenas %d,%d", thB.arena.index, thA.arena.index)
	}
	bps := slab.BlocksPerSlab(sizeclass.Class(64), h.lay.Bitmap)
	// Allocate from arena 1 until a second slab appears: last is then the
	// only allocated block of that slab, first a block of the full one.
	first, err := thA.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	last := first
	for i := 0; last&^(slab.Size-1) == first&^(slab.Size-1); i++ {
		if i > 2*bps {
			t.Fatal("no second slab")
		}
		if last, err = thA.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	x2 := last &^ (slab.Size - 1)
	thA.Close() // unreserve the tcache's blocks of the second slab
	if err := thB.Free(first); err != nil {
		t.Fatal(err)
	}
	if err := thB.Free(last); err != nil {
		t.Fatal(err)
	}
	thB.Flush()
	if h.slabs.Lookup(x2) != nil {
		t.Fatal("second slab was not released")
	}
	// Arena 0 allocates the class until it formats the released base.
	var live pmem.PAddr
	for i := 0; i < 4*bps && live == 0; i++ {
		p, err := alloc.MallocTo(thB, h.RootSlot(0), 64)
		if err != nil {
			t.Fatal(err)
		}
		if p == last {
			live = p
		}
	}
	if live == 0 {
		t.Skip("arena 0 never re-formatted the released base")
	}
	if s := h.slabs.Lookup(x2); s == nil || s.Owner != 0 {
		t.Fatalf("base %#x not owned by arena 0", x2)
	}
	dev.Crash()
	h2, _, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !h2.BlockAllocated(live) {
		t.Fatalf("live block %#x of arena 0 freed by arena 1's stale entry", live)
	}
}

// TestWALRingMinimum: a ring shorter than four remote-free drains would
// let a mid-group checkpoint move retire entries whose bits are not yet
// written, so Create rounds a smaller request up and Open refuses an image
// that claims one.
func TestWALRingMinimum(t *testing.T) {
	dev, h := newHeap(t, LOG, func(o *Options) { o.WALEntries = 1 })
	if got := h.Options().WALEntries; got != MinWALEntries {
		t.Fatalf("WALEntries %d, want the minimum %d", got, MinWALEntries)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(superBase+sbWALEnts, MinWALEntries-1)
	dev.WriteU64(superBase+sbChecksum, uint64(superCRC(dev)))
	_, _, err := Open(dev, Options{})
	var ce *pmem.CorruptError
	if !errors.As(err, &ce) || ce.Addr != superBase+sbWALEnts {
		t.Fatalf("Open with a %d-entry ring: %v, want a superblock corruption at the ring capacity", MinWALEntries-1, err)
	}
}

// TestMinimumRingSurvivesDrainGroups drives full remote-free drains — the
// largest commit group — through a ring of the minimum size, so checkpoint
// moves land inside groups, and crashes after every one: each acknowledged
// drain must read freed and every block still held allocated.
func TestMinimumRingSurvivesDrainGroups(t *testing.T) {
	dev, h := newHeap(t, LOG, func(o *Options) {
		o.Arenas = 2
		o.WALEntries = MinWALEntries
	})
	for round := 0; round < 12; round++ {
		owner := h.NewThread()
		remote := h.NewThread()
		var held, freed []pmem.PAddr
		for i := 0; i < 3*remoteBatch; i++ {
			p, err := owner.Malloc(96)
			if err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				held = append(held, p)
			} else {
				freed = append(freed, p)
			}
		}
		for _, p := range freed { // exactly two automatic drains
			if err := remote.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		owner.Ctx().Merge()
		remote.Ctx().Merge()
		dev.Crash()
		var err error
		if h, _, err = Open(dev, Options{}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, p := range held {
			if !h.BlockAllocated(p) {
				t.Fatalf("round %d: held block %#x lost", round, p)
			}
		}
		for _, p := range freed {
			if h.BlockAllocated(p) {
				t.Fatalf("round %d: drained block %#x still allocated", round, p)
			}
		}
	}
}

// TestOpenStartsFreshTimeline: recovery's virtual time is a property of
// the heap it recovers, not of how much the dead session flushed. Two
// devices reach the same heap state; one then issues 100x the flushes of
// the other to a user block. Open must report the same time on both (it
// used to queue behind the old session's bank clocks).
func TestOpenStartsFreshTimeline(t *testing.T) {
	recoverAfter := func(extra int) int64 {
		dev := pmem.New(pmem.Config{Size: 64 << 20})
		h, err := Create(dev, DefaultOptions(LOG))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		for i := 0; i < 500; i++ {
			if _, err = th.Malloc(uint64(64 + i%200)); err != nil {
				t.Fatal(err)
			}
		}
		scratch, err := th.Malloc(4096) // 64 lines: every bank
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extra; i++ {
			th.Ctx().Flush(pmem.CatOther, scratch, 4096)
		}
		_, ns, err := Open(dev, Options{}) // the session is dropped, not closed
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	if a, b := recoverAfter(10), recoverAfter(1000); a != b {
		t.Fatalf("Open took %d virtual ns after 640 extra flushes, %d after 64000", a, b)
	}
}

// TestScavengeWALRepairNeverHandsOutLiveBlocks: in LOG a ring is the only
// durable record of the bits written since its checkpoint. Damage two of
// its slots after a crash and the ring cannot be replayed; the repair must
// leak what the lost entries covered, never hand it out again.
func TestScavengeWALRepairNeverHandsOutLiveBlocks(t *testing.T) {
	dev, h := newHeap(t, LOG, func(o *Options) { o.Arenas = 1 })
	th := h.NewThread()
	acked := map[pmem.PAddr]bool{}
	for i := 0; i < 150; i++ {
		var p pmem.PAddr
		var err error
		if i < alloc.NumRootSlots {
			p, err = alloc.MallocTo(th, h.RootSlot(i), uint64(64+i%3*64))
		} else {
			p, err = th.Malloc(uint64(64 + i%3*64))
		}
		if err != nil {
			t.Fatal(err)
		}
		acked[p] = true
	}
	th.Ctx().Merge()
	dev.Crash()

	// Flip one bit in two entries above the checkpoint (nothing wrapped:
	// the checkpoint is 0 and the ring starts one line past its base).
	base := h.walBase() + pmem.LineSize
	for _, slot := range []pmem.PAddr{10, 40} {
		a := base + slot*walog.EntrySize + 9
		dev.WriteU8(a, dev.ReadU8(a)^0x10)
	}
	if _, _, err := Open(dev.Clone(), Options{}); !errors.Is(err, pmem.ErrCorrupted) {
		t.Fatalf("Open of the damaged image: %v, want a corruption error", err)
	}
	h2, repairs, err := Scavenge(dev, Options{})
	if err != nil {
		t.Fatalf("Scavenge: %v (repairs %q)", err, repairs)
	}
	t.Logf("repairs: %q", repairs)
	for i := 0; i < alloc.NumRootSlots; i++ {
		if p := pmem.PAddr(dev.ReadU64(h2.RootSlot(i))); !acked[p] || !h2.BlockAllocated(p) {
			t.Fatalf("root slot %d holds %#x after the repair: not a live acknowledged block", i, p)
		}
	}
	th2 := h2.NewThread()
	defer th2.Close()
	for i := 0; i < 5000; i++ {
		p, err := th2.Malloc(uint64(64 + i%3*64))
		if err != nil {
			t.Fatal(err)
		}
		if acked[p] {
			t.Fatalf("acknowledged block %#x handed out again after the WAL repair", p)
		}
	}
}
