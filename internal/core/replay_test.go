package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// slabBitmaps copies the bitmap region of every slab of h as dev's cache
// image holds it, by slab base.
func slabBitmaps(h *Heap, dev *pmem.Device) map[pmem.PAddr][]byte {
	out := map[pmem.PAddr][]byte{}
	h.slabs.Range(func(base pmem.PAddr, s *slab.Slab) bool {
		r := s.BitmapRange()
		out[base] = bytes.Clone(dev.Mem().Bytes(r.Start, int(r.End-r.Start)))
		return true
	})
	return out
}

// replayCase is one crashed session of TestReplayMatchesLastEntries: setup
// runs in a session that closes cleanly, so the crashed one starts on
// empty rings; crashed runs in the session dropped without Close.
type replayCase struct {
	name           string
	setup, crashed func(t *testing.T, h *Heap, th *Thread)
}

// fillAroundTwo fills a slab of 1024-byte blocks from th, publishing its
// first two under root slots 0 and 1, and returns them and the slab's
// other blocks. th holds no reservation in the slab afterwards.
func fillAroundTwo(t *testing.T, h *Heap, th *Thread) (keep [2]pmem.PAddr, rest []pmem.PAddr) {
	t.Helper()
	for i := range keep {
		p, err := alloc.MallocTo(th, h.RootSlot(i), 1024)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = p
	}
	x := keep[0] &^ (slab.Size - 1)
	if keep[1]&^(slab.Size-1) != x {
		t.Fatal("setup: the two published blocks are in different slabs")
	}
	xs := h.slabs.Lookup(x)
	for xs.Reserved > 0 || th.arena.onFreelist(xs) {
		p, err := th.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if p&^(slab.Size-1) == x {
			rest = append(rest, p)
		}
	}
	return keep, rest
}

// morphAroundTwo frees rest through a thread of another arena, whose
// Close drains those remote frees into their slab, and morphs the slab
// around the two published blocks with a 1536-byte malloc from owner, a
// thread of the slab's arena. It returns the new-class block the malloc
// took.
func morphAroundTwo(t *testing.T, h *Heap, owner *Thread, keep [2]pmem.PAddr, rest []pmem.PAddr) pmem.PAddr {
	t.Helper()
	f := h.NewThread().(*Thread)
	if f.arena == owner.arena {
		t.Fatal("setup: the freeing thread shares the owner's arena")
	}
	for _, p := range rest {
		if err := f.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	fresh, err := owner.Malloc(1536)
	if err != nil {
		t.Fatal(err)
	}
	xs := h.slabs.Lookup(keep[0] &^ (slab.Size - 1))
	if fresh&^(slab.Size-1) != xs.Base || xs.OldBlockIndex(keep[0]) < 0 || xs.OldBlockIndex(keep[1]) < 0 {
		t.Fatal("setup: the emptied slab did not morph around the two published blocks")
	}
	return fresh
}

// ownerThread returns th if its arena owns the slab holding p, else a new
// thread of the heap's other arena, which does.
func ownerThread(t *testing.T, h *Heap, th *Thread, p pmem.PAddr) *Thread {
	t.Helper()
	owner := h.slabs.Lookup(p &^ (slab.Size - 1)).Owner
	if th.arena.index == owner {
		return th
	}
	if o := h.NewThread().(*Thread); o.arena.index == owner {
		return o
	}
	t.Fatalf("no thread of arena %d", owner)
	return nil
}

// TestReplayMatchesLastEntries: after a crashed session, Open's replay
// leaves each slab's bitmap as the session left it in its cache, which is
// the state the last ring entry naming each block records, and it builds
// exactly the slabs whose persisted bits disagree with that. Each case
// runs twice: dropped, the cache image survives (a killed process whose
// heap file stays mapped), so replay finds nothing to change and builds
// no bitmap; crashed (pmem.Device.Crash), every unflushed line is lost,
// and replay builds the slabs whose lines the crash took.
func TestReplayMatchesLastEntries(t *testing.T) {
	var keep [2]pmem.PAddr
	var rest []pmem.PAddr
	var fresh pmem.PAddr
	slabIn := func(t *testing.T, h *Heap, th *Thread) {
		keep, rest = fillAroundTwo(t, h, th)
		fresh = morphAroundTwo(t, h, th, keep, rest)
	}
	// inSlabIn mallocs a 1536-byte block from o and checks that it comes
	// from the slab_in.
	inSlabIn := func(t *testing.T, o *Thread) {
		p, err := o.Malloc(1536)
		if err != nil {
			t.Fatal(err)
		}
		if p&^(slab.Size-1) != keep[0]&^(slab.Size-1) {
			t.Fatal("setup: the new-class malloc left the slab_in")
		}
	}
	cases := []replayCase{{
		// One block allocated, freed and allocated again in one ring: only
		// the last state is applied.
		name: "alloc-free-alloc",
		crashed: func(t *testing.T, h *Heap, th *Thread) {
			p, err := th.Malloc(128)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
			if q, err := th.Malloc(128); err != nil || q != p {
				t.Fatalf("malloc after the free: %#x, %v; want %#x back", q, err, p)
			}
		},
	}, {
		// One block published and freed again in one ring: its last
		// state is free, its first allocated. A block of another class
		// stays published, so a power failure loses a bit.
		name: "alloc-free",
		crashed: func(t *testing.T, h *Heap, th *Thread) {
			if _, err := alloc.MallocTo(th, h.RootSlot(1), 256); err != nil {
				t.Fatal(err)
			}
			if _, err := alloc.MallocTo(th, h.RootSlot(0), 128); err != nil {
				t.Fatal(err)
			}
			if err := alloc.FreeFrom(th, h.RootSlot(0)); err != nil {
				t.Fatal(err)
			}
		},
	}, {
		// The session empties a slab and morphs it: the entries of the
		// frees before the OpMorph are void, only the fresh block is
		// applied.
		name:  "completed-morph",
		setup: func(t *testing.T, h *Heap, th *Thread) { keep, rest = fillAroundTwo(t, h, th) },
		crashed: func(t *testing.T, h *Heap, th *Thread) {
			o := ownerThread(t, h, th, keep[0])
			fresh = morphAroundTwo(t, h, o, keep, rest)
			o.Ctx().Merge()
		},
	}, {
		// New-class entries of a slab_in whose other blocks the remaining
		// old-class blocks pin.
		name:  "pinned-block",
		setup: slabIn,
		crashed: func(t *testing.T, h *Heap, th *Thread) {
			x := h.slabs.Lookup(keep[0] &^ (slab.Size - 1))
			pinned := 0
			for idx := 0; idx < x.Blocks; idx++ {
				pinned += x.OverlapCount(idx)
			}
			if pinned == 0 {
				t.Fatal("setup: no new-class block is pinned")
			}
			o := ownerThread(t, h, th, keep[0])
			for i := 0; i < 3; i++ {
				inSlabIn(t, o)
			}
			if err := o.Free(fresh); err != nil {
				t.Fatal(err)
			}
			o.Ctx().Merge()
		},
	}}
	for _, tc := range cases {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/crash=%v", tc.name, crash), func(t *testing.T) {
				// Two arenas: slabInWithTwo frees through the second. th,
				// the first thread of each session, works in arena 0.
				opts := DefaultOptions(LOG)
				opts.Arenas = 2
				dev, h := newHeap(t, LOG, func(o *Options) { *o = opts })
				th := h.NewThread().(*Thread)
				if tc.setup != nil {
					tc.setup(t, h, th)
				}
				th.Close()
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				h, _, err := Open(dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				th = h.NewThread().(*Thread)
				tc.crashed(t, h, th)
				th.Ctx().Merge()
				want := slabBitmaps(h, dev)
				if crash {
					dev.Crash()
				}
				disagree := map[pmem.PAddr]bool{}
				for base, bm := range slabBitmaps(h, dev) {
					if !bytes.Equal(bm, want[base]) {
						disagree[base] = true
					}
				}
				if crash == (len(disagree) == 0) {
					t.Fatalf("%d slabs' persisted bitmaps differ from the session's: the case does not test what it says", len(disagree))
				}

				h, _, err = Open(dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				rep := h.Recovery()
				if rep.EntriesReplayed == 0 || rep.BitsChecked == 0 {
					t.Fatalf("replay read %d entries and checked %d bits: nothing to replay", rep.EntriesReplayed, rep.BitsChecked)
				}
				built, _ := builtSlabs(h)
				if rep.BitmapsBuilt != len(built) || len(built) != len(disagree) {
					t.Errorf("%d bitmaps built (%d reported), want the %d whose persisted bits disagree", len(built), rep.BitmapsBuilt, len(disagree))
				}
				for base := range disagree {
					if !built[base] {
						t.Errorf("slab %#x, whose persisted bits disagree with its ring, is unbuilt", base)
					}
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				if crash {
					// After a power failure, and the recovery and Close
					// that follow, the media holds every wanted bit. A
					// dropped session's bits that replay found in place
					// stay in the cache image: replay writes back only
					// the lines it changed.
					dev.Crash()
				}
				got := slabBitmaps(h, dev)
				if len(got) != len(want) {
					t.Fatalf("%d slabs after recovery, %d before the crash", len(got), len(want))
				}
				for base, bm := range want {
					if !bytes.Equal(got[base], bm) {
						t.Errorf("slab %#x: bitmap after Open+Close differs from the one its last entries record", base)
					}
				}
			})
		}
	}
}

// TestReplayFreesOldBlockAmongNewClassStates: a publish that frees an
// old-class block of a slab_in, logged after new-class entries of the same
// slab, is cut by a power failure after its slot word reached the media
// and before the free's index word did. Replay must then run the free
// itself (FreeOldBlock) besides bringing the new-class bits about, and the
// slab must end as the session left it. The cut is found by trying each
// flush of the publish in turn: the first that leaves the slot cleared and
// the index entry in place on the media is the one.
func TestReplayFreesOldBlockAmongNewClassStates(t *testing.T) {
	opts := DefaultOptions(LOG)
	opts.Arenas = 2
	for cut := int64(0); cut < 16; cut++ {
		dev, h := newHeap(t, LOG, func(o *Options) { *o = opts })
		th := h.NewThread().(*Thread)
		keep, rest := fillAroundTwo(t, h, th)
		fresh := morphAroundTwo(t, h, th, keep, rest)
		th.Close()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		h, _, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := keep[0] &^ (slab.Size - 1)
		o := ownerThread(t, h, h.NewThread().(*Thread), keep[0])
		if p, err := o.Malloc(1536); err != nil || p&^(slab.Size-1) != base {
			t.Fatalf("setup: new-class malloc %#x, %v; want a block of slab %#x", p, err, base)
		}
		if err := o.Free(fresh); err != nil {
			t.Fatal(err)
		}
		dev.CrashAfterFlushes(cut)
		if err := alloc.FreeFrom(o, h.RootSlot(0)); err != nil {
			t.Fatal(err)
		}
		o.Ctx().Merge()
		want := slabBitmaps(h, dev)
		dev.Crash()

		cp := dev.Clone()
		before, err := slab.Open(cp.Mem(), cp.NewCtx(), base)
		if err != nil {
			t.Fatal(err)
		}
		if dev.ReadU64(h.RootSlot(0)) != 0 || before.OldBlockIndex(keep[0]) < 0 {
			continue // the cut fell before the slot word or after the index word
		}

		h, _, err = Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := h.slabs.Lookup(base)
		if x.OldBlockIndex(keep[0]) >= 0 || x.OldBlockIndex(keep[1]) < 0 {
			t.Fatalf("cut %d: after replay old block %#x indexed %v, %#x indexed %v; want only the second",
				cut, keep[0], x.OldBlockIndex(keep[0]) >= 0, keep[1], x.OldBlockIndex(keep[1]) >= 0)
		}
		if !x.Built() {
			t.Fatalf("cut %d: replay freed an old block of slab %#x without building it", cut, base)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		dev.Crash()
		for b, bm := range slabBitmaps(h, dev) {
			if !bytes.Equal(bm, want[b]) {
				t.Errorf("cut %d: slab %#x: bitmap after Open+Close differs from the one the session left", cut, b)
			}
		}
		if h, _, err = Open(dev, opts); err != nil {
			t.Fatal(err)
		}
		if h.slabs.Lookup(base).OldBlockIndex(keep[0]) >= 0 {
			t.Fatalf("cut %d: the replayed free of %#x did not reach the media", cut, keep[0])
		}
		return
	}
	t.Fatal("no cut fell between the publish's slot word and its index word")
}

// TestReplayChargesNoMoreThanBuild: replay never charges a slab more for
// reading its bitmap than building it does, Blocks/8. Random sessions of
// one arena publish and free blocks of one class within one slab and are
// cut by a power failure (pmem.Device.Crash) after a random number of
// operations. What Open charges as search beyond a clean open of the same
// image is the ring's scan plus that one slab's bitmap reads: Blocks/8 if
// replay built it, one per check if it did not.
func TestReplayChargesNoMoreThanBuild(t *testing.T) {
	sizes := []uint64{64, 128, 256, 1024}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := sizes[rng.Intn(len(sizes))]
		dev, h := newHeap(t, LOG, func(o *Options) { o.Arenas = 1 })
		th := h.NewThread().(*Thread)
		first, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		x := h.slabs.Lookup(first &^ (slab.Size - 1))
		th.Close()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if h, _, err = Open(dev, Options{}); err != nil {
			t.Fatal(err)
		}
		th = h.NewThread().(*Thread)
		live := map[int]bool{}
		ops := 1 + rng.Intn(40)
		for op := 0; op < ops; op++ {
			slot := rng.Intn(min(64, x.Blocks/4))
			if live[slot] {
				err = alloc.FreeFrom(th, h.RootSlot(slot))
			} else {
				_, err = alloc.MallocTo(th, h.RootSlot(slot), size)
			}
			if err != nil {
				t.Fatal(err)
			}
			live[slot] = !live[slot]
		}
		th.Ctx().Merge()
		dev.Crash()

		search := func(d *pmem.Device) (int64, *Heap) {
			before := d.Stats().CatNS[pmem.CatSearch]
			h, _, err := Open(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return d.Stats().CatNS[pmem.CatSearch] - before, h
		}
		clean := dev.Clone()
		clean.WriteU64(superBase+sbState, pmem.SealU64(stateShutdown))
		base, _ := search(clean)
		got, h := search(dev)
		rep := h.Recovery()
		reads := got - base - int64(walog.SlotReadNS*(rep.EntriesReplayed+1))
		s := h.slabs.Lookup(x.Base)
		if n, _ := builtSlabs(h); len(n) > 1 || (len(n) == 1 && !n[x.Base]) {
			t.Fatalf("seed %d: replay built %d slabs; the session named one", seed, len(n))
		}
		want := int64(rep.BitsChecked)
		if s.Built() {
			want = int64(s.Blocks) / 8
		}
		if reads != want || reads > int64(s.Blocks)/8 {
			t.Errorf("seed %d (%d ops of %d B): replay charged %d ns of bitmap reads (built %v, %d checks), want %d and at most Blocks/8 = %d",
				seed, ops, size, reads, s.Built(), rep.BitsChecked, want, s.Blocks/8)
		}
	}
}
