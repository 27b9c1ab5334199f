package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// TestCleanBitmapLinesAreOnMedia holds net-change write-back to the
// invariant it rests on: a bitmap line outside its slab's write-back set
// reads the same on the media as in the cache image — that is what lets a
// line going dirty be snapshotted from the cache image, and a line whose
// bytes are back at the snapshot be skipped. It is checked after every
// move of a ring's checkpoint word (when the lines of every slab the ring
// covers must be clean as well) over a trace that reaches the ways a line
// is cleaned: the write-back itself, skipped and flushed; a morph's
// rewrite of the whole bitmap; a slab's retirement; frees of a morphed
// slab's old-class blocks. (The eager flush of a line that holds deferred
// bits has a test of its own in internal/slab.)
func TestCleanBitmapLinesAreOnMedia(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 2
	opts.WALEntries = MinWALEntries
	opts.NoExtentCache = true
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, a := range h.arenas {
		wb := a.wal.WriteBack
		a.wal.WriteBack = func(c *pmem.Ctx) bool { moves++; return wb(c) }
	}
	checked, skipped := 0, 0
	check := func(op int) {
		t.Helper()
		media := dev.Clone()
		media.Crash() // its cache image is now what the media holds
		h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
			r := s.BitmapRange()
			for line := 0; r.Start+pmem.PAddr(line*pmem.LineSize) < r.End; line++ {
				if s.DirtyLines()&(1<<line) != 0 {
					skipped++
					continue
				}
				a := r.Start + pmem.PAddr(line*pmem.LineSize)
				if !bytes.Equal(dev.Bytes(a, pmem.LineSize), media.Bytes(a, pmem.LineSize)) {
					t.Fatalf("op %d: clean bitmap line %d of slab %#x differs between cache image and media", op, line, s.Base)
				}
				checked++
			}
			return true
		})
	}

	ths := []alloc.Thread{h.NewThread(), h.NewThread()}
	rng := rand.New(rand.NewSource(17))
	sizes := []uint64{64, 64, 64, 256, 1024, 1536, 4096}
	var live [2][]pmem.PAddr
	slotUsed := map[int]bool{}
	nOps := 6000
	if testing.Short() {
		nOps = 2400
	}
	for op := 0; op < nOps; op++ {
		before := moves
		w := rng.Intn(2)
		th := ths[w]
		switch p := rng.Intn(100); {
		case p < 40:
			a, err := th.Malloc(sizes[rng.Intn(len(sizes))])
			if err != nil {
				t.Fatal(err)
			}
			live[w] = append(live[w], a)
		case p < 75:
			// Mostly own blocks (tcache cycles that net to nothing), some
			// of the other thread's (buffered remote frees and drains).
			from := w
			if rng.Intn(5) == 0 {
				from = 1 - w
			}
			if n := len(live[from]); n > 0 {
				i := n - 1 - rng.Intn(min(n, 4))
				if err := th.Free(live[from][i]); err != nil {
					t.Fatal(err)
				}
				live[from] = append(live[from][:i], live[from][i+1:]...)
			}
		case p < 90:
			slot := rng.Intn(16)
			var err error
			if slotUsed[slot] {
				err = alloc.FreeFrom(th, h.RootSlot(slot))
			} else {
				_, err = alloc.MallocTo(th, h.RootSlot(slot), sizes[rng.Intn(len(sizes))])
			}
			if err != nil {
				t.Fatal(err)
			}
			slotUsed[slot] = !slotUsed[slot]
		default:
			// Replace through one publish entry.
			slot := 16 + rng.Intn(8)
			old := pmem.PAddr(dev.ReadU64(h.RootSlot(slot)))
			a, err := th.Reserve(sizes[rng.Intn(len(sizes))])
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Publish(h.RootSlot(slot), a, old); err != nil {
				t.Fatal(err)
			}
		}
		if op == nOps/2 {
			// Drain everything anonymous: slabs empty out, are retired and
			// released, and the classes that follow morph what is left.
			for w := range live {
				for _, a := range live[w] {
					if err := ths[w].Free(a); err != nil {
						t.Fatal(err)
					}
				}
				live[w] = nil
				// Closing drains the thread's caches: a slab morphs only
				// with no block of it reserved.
				ths[w].Close()
			}
			ths = []alloc.Thread{h.NewThread(), h.NewThread()}
			sizes = []uint64{96, 96, 384, 2048}
		}
		if moves != before {
			check(op)
		}
	}
	morphs, _ := h.MorphStats()
	t.Logf("%d checkpoint moves, %d clean lines compared, %d dirty lines skipped, %d morphs", moves, checked, skipped, morphs)
	if moves < nOps/120 || checked == 0 || skipped == 0 {
		t.Fatal("the trace no longer wraps the rings with lines dirty in other slabs")
	}
	if morphs == 0 {
		t.Error("the trace no longer morphs a slab")
	}
}

// publishHeap is a two-arena LOG heap on a small strict device.
func publishHeap(t *testing.T) (*pmem.Device, *Heap) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 2
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev, h
}

// crashAndOpen cuts power and recovers.
func crashAndOpen(t *testing.T, dev *pmem.Device, ths ...alloc.Thread) *Heap {
	t.Helper()
	for _, th := range ths {
		th.Ctx().Merge()
	}
	dev.Crash()
	h, _, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPublishEveryFlushBoundary cuts power after every flush of a replace
// (slot holds old, new is reserved and filled) for small and large blocks
// in every combination, and requires all or nothing: the slot holds new,
// new is allocated and old free — or the slot holds old, old is allocated
// and new free. Objects must list exactly the block the slot references.
func TestPublishEveryFlushBoundary(t *testing.T) {
	const small, large = 200, 40 << 10
	for _, tc := range []struct {
		name             string
		oldSize, newSize uint64
	}{
		{"small over small", small, small},
		{"large over small", small, large},
		{"small over large", large, small},
		{"large over large", large, large},
		{"small over nothing", 0, small},
		{"large over nothing", 0, large},
		{"nothing over small", small, 0},
		{"nothing over large", large, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for cut := int64(0); ; cut++ {
				dev, h := publishHeap(t)
				th := h.NewThread()
				slot := h.RootSlot(5)
				var old, blk pmem.PAddr
				var err error
				if tc.oldSize > 0 {
					if old, err = alloc.MallocTo(th, slot, tc.oldSize); err != nil {
						t.Fatal(err)
					}
				}
				if tc.newSize > 0 {
					if blk, err = th.Reserve(tc.newSize); err != nil {
						t.Fatal(err)
					}
					dev.WriteU64(blk, 0xF1111ED)
					th.Ctx().Flush(pmem.CatOther, blk, 8)
				}
				dev.CrashAfterFlushes(cut)
				err = th.Publish(slot, blk, old)
				done := !dev.Crashed()
				if done && err != nil {
					t.Fatal(err)
				}
				h2 := crashAndOpen(t, dev, th)
				got := pmem.PAddr(dev.ReadU64(slot))
				if got != blk && got != old {
					t.Fatalf("cut %d: slot holds %#x, neither old %#x nor new %#x", cut, got, old, blk)
				}
				if done && got != blk {
					t.Fatalf("cut %d: acknowledged publish rolled back", cut)
				}
				var objs []pmem.PAddr
				h2.Objects(func(o Object) bool { objs = append(objs, o.Addr); return true })
				if got == pmem.Null && len(objs) != 0 {
					t.Fatalf("cut %d: slot is empty and %#x are allocated", cut, objs)
				}
				if got != pmem.Null && (len(objs) != 1 || objs[0] != got) {
					t.Fatalf("cut %d: slot references %#x (old %#x, new %#x) and %#x are allocated", cut, got, old, blk, objs)
				}
				if done {
					break
				}
			}
		})
	}
}

// TestPublishCrossArenaOld: an old block another arena owns stays out of
// the publish entry (replay orders a block's bit changes by its owner's
// ring) and is freed through the remote-free buffer, which Flush drains.
func TestPublishCrossArenaOld(t *testing.T) {
	dev, h := publishHeap(t)
	a, b := h.NewThread().(*Thread), h.NewThread().(*Thread)
	if a.arena == b.arena {
		t.Fatal("threads share an arena")
	}
	slot := h.RootSlot(0)
	old, err := alloc.MallocTo(a, slot, 64)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := b.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	before := b.ctx.Local()
	if err := b.Publish(slot, blk, old); err != nil {
		t.Fatal(err)
	}
	after := b.ctx.Local()
	if f := after.Flushes - before.Flushes; f != 2 {
		t.Fatalf("%d flushes, want the entry and the slot", f)
	}
	if !h.BlockAllocated(old) {
		t.Fatal("remote old block was freed inside the publish, not buffered")
	}
	b.Flush()
	h2 := crashAndOpen(t, dev, a, b)
	if h2.BlockAllocated(old) || !h2.BlockAllocated(blk) || pmem.PAddr(dev.ReadU64(slot)) != blk {
		t.Fatalf("after the drain and a crash: old allocated %v, new allocated %v, slot %#x", h2.BlockAllocated(old), h2.BlockAllocated(blk), dev.ReadU64(slot))
	}
}

// TestPublishRefusesBadBlocks: new must be a reservation and old an
// allocated block; a refused publish logs and changes nothing.
func TestPublishRefusesBadBlocks(t *testing.T) {
	_, h := publishHeap(t)
	th := h.NewThread().(*Thread)
	defer th.Close()
	slot := h.RootSlot(0)
	live, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := th.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	before := th.ctx.Local().Flushes
	for name, err := range map[string]error{
		"allocated block as new":  th.Publish(slot, live, pmem.Null),
		"reservation as old":      th.Publish(slot, pmem.Null, res),
		"nothing at all":          th.Publish(slot, pmem.Null, pmem.Null),
		"unaligned old":           th.Publish(slot, pmem.Null, live+8),
		"dead extent as old":      th.Publish(slot, pmem.Null, pmem.PAddr(h.dev.Size()-1<<20)),
		"unreserve of live block": th.Unreserve(live),
	} {
		if !errors.Is(err, alloc.ErrBadAddress) {
			t.Errorf("%s: %v, want ErrBadAddress", name, err)
		}
	}
	if f := th.ctx.Local().Flushes; f != before {
		t.Fatalf("refused publishes flushed %d lines", f-before)
	}
	if err := th.Unreserve(res); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(live); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesOtherFormatVersion: version 3 rings hold the malloc_to /
// free_from op codes in another entry layout, and version 4 splits the
// bookkeeping log into shards. An intact superblock of either version is
// not corruption and nothing to repair — Open and Scavenge both return the
// *pmem.FormatError — while a flipped version bit still is.
func TestOpenRefusesOtherFormatVersion(t *testing.T) {
	dev, h := newHeap(t, LOG, nil)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	flipped := dev.Clone()
	flipped.WriteU64(superBase+sbVersion, superVersion^1)
	if _, _, err := Open(flipped, Options{}); !errors.Is(err, pmem.ErrCorrupted) {
		t.Fatalf("Open with a flipped version bit: %v, want a corruption error", err)
	}

	for _, v := range []uint64{3, 4} {
		old := dev.Clone()
		old.WriteU64(superBase+sbVersion, v)
		old.WriteU64(superBase+sbChecksum, uint64(superCRC(old)))
		var fe *pmem.FormatError
		if _, _, err := Open(old.Clone(), Options{}); !errors.As(err, &fe) || fe.Version != v {
			t.Fatalf("Open of a version %d heap: %v, want a *pmem.FormatError naming it", v, err)
		} else if errors.Is(err, pmem.ErrCorrupted) {
			t.Fatalf("a heap of another version reported as corrupt: %v", err)
		}
		if _, repairs, err := Scavenge(old, Options{}); !errors.As(err, &fe) || len(repairs) != 0 {
			t.Fatalf("Scavenge of a version %d heap: %v after repairs %q, want the *pmem.FormatError and no repair", v, err, repairs)
		}
	}
}

// TestWALOpCodesKeepTheFormat: ring entries name their op by number, so
// the codes NVAlloc writes are part of the version 6 format. Codes 3 and 4
// went with the baselines' two-op publish records; the codes after them
// did not move.
func TestWALOpCodesKeepTheFormat(t *testing.T) {
	if superVersion != 6 {
		t.Fatalf("superVersion %d, want 6", superVersion)
	}
	for _, c := range []struct {
		op   walog.Op
		want uint8
	}{{walog.OpAllocBit, 1}, {walog.OpFreeBit, 2}, {walog.OpMorph, 5}, {walog.OpRetire, 6}, {walog.OpPublish, 7}} {
		if uint8(c.op) != c.want {
			t.Errorf("op %d, want %d", c.op, c.want)
		}
	}
}

// TestReplaySkipsEntriesAMorphAbsorbed: a publish supersedes a block, the
// block is published again under another slot, and then its slab — drained
// by the other arena's thread — morphs around it, all inside one checkpoint
// period of the owner's ring. The morph's index table holds the block as
// live. Replaying the first entry's free against that table would release
// it, and the entry that allocated it again carries the old class and is
// not replayed over the new geometry: the completed morph must void both.
// (This is the heap a kv store leaves when values change size class; found
// as an acknowledged key whose delete failed after a kill -9.)
func TestReplaySkipsEntriesAMorphAbsorbed(t *testing.T) {
	dev, h := newHeap(t, LOG, func(o *Options) { o.Arenas = 2 })
	remote := h.NewThread().(*Thread) // arena 0
	owner := h.NewThread().(*Thread)  // arena 1
	keep, err := alloc.MallocTo(owner, h.RootSlot(0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	x := keep &^ (slab.Size - 1)
	// Fill the slab and move on to the next, so the owner's cache holds no
	// reservation in it.
	var anon []pmem.PAddr
	for in := true; in || len(anon) < 70; {
		p, err := owner.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		in = p&^(slab.Size-1) == x
		anon = append(anon, p)
	}
	for _, p := range anon {
		if p&^(slab.Size-1) == x {
			if err := remote.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	remote.Flush()

	// Supersede the one block left in the slab, then publish it again.
	n, err := owner.Reserve(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Publish(h.RootSlot(0), n, keep); err != nil {
		t.Fatal(err)
	}
	// Reserve until the cache hands the superseded block out again (at
	// once from a LIFO cache, within a turn of the cursor from a striped
	// one) and give the others back.
	var others []pmem.PAddr
	for {
		p, err := owner.Reserve(1024)
		if err != nil {
			t.Fatal(err)
		}
		if p == keep {
			break
		}
		if others = append(others, p); len(others) > 24 {
			t.Fatalf("the cache never handed out %#x, the block just freed into it", keep)
		}
	}
	if err := owner.Publish(h.RootSlot(1), keep, pmem.Null); err != nil {
		t.Fatal(err)
	}
	for _, p := range others {
		if err := owner.Unreserve(p); err != nil {
			t.Fatal(err)
		}
	}
	morphs, _ := h.MorphStats()
	if _, err := alloc.MallocTo(owner, h.RootSlot(2), 1536); err != nil {
		t.Fatal(err)
	}
	if after, _ := h.MorphStats(); after != morphs+1 {
		t.Fatal("the drained slab did not morph")
	}
	if s := h.slabs.Lookup(x); s.OldBlockIndex(keep) < 0 {
		t.Fatal("the morph did not carry the republished block over")
	}
	owner.Ctx().Merge()
	remote.Ctx().Merge()
	dev.Crash()

	h2, _, err := Open(dev, DefaultOptions(LOG))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Recovery().EntriesReplayed == 0 {
		t.Fatal("nothing to replay: the ring's checkpoint passed the entries")
	}
	if !h2.BlockAllocated(keep) {
		t.Fatalf("block %#x, published under root slot 1, reads free after replay", keep)
	}
	th := h2.NewThread()
	defer th.Close()
	if err := alloc.FreeFrom(th, h2.RootSlot(1)); err != nil {
		t.Fatalf("deleting the republished block after recovery: %v", err)
	}
}
