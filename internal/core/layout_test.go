package core

import (
	"math/rand"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
)

// TestLayoutFollowsVariant pins the rule of Options.layout: what a variant
// flushes per operation is interleaved, nothing else is.
func TestLayoutFollowsVariant(t *testing.T) {
	want := map[Variant]Layout{
		LOG: {Bitmap: 1, Tcache: 1, WAL: 6},
		GC:  {Bitmap: 1, Tcache: 1, WAL: 6},
		IC:  {Bitmap: 6, Tcache: 6, WAL: 6},
	}
	for v, lay := range want {
		dev, h := newHeap(t, v, nil)
		if got := h.Layout(); got != lay {
			t.Errorf("%v: layout %+v, want %+v", v, got, lay)
		}
		th := h.NewThread()
		if _, err := th.Malloc(64); err != nil {
			t.Fatal(err)
		}
		th.Close()
		if census := h.LayoutCensus(); len(census) != 1 || census[lay.Bitmap] == 0 {
			t.Errorf("%v: slabs by stripe count %v, want all %d-way", v, census, lay.Bitmap)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		h2, _, err := Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := h2.Layout(); got != lay {
			t.Errorf("%v reopened: layout %+v, want %+v", v, got, lay)
		}
	}
	// Stripes = 1 is interleaving off, everywhere.
	_, h := newHeap(t, IC, func(o *Options) { o.Stripes = 1 })
	if got, want := h.Layout(), (Layout{1, 1, 1}); got != want {
		t.Errorf("IC with one stripe: layout %+v, want %+v", got, want)
	}
}

// writeBackLines runs a fixed Larson-like trace — a table of slots, each
// step frees a random slot's block and allocates a block of a random size
// of 128 to 1024 bytes in its place — on a one-arena NVAlloc-LOG heap of
// the given layout, and returns, for every move of the ring's checkpoint,
// how many slabs the write-back ahead of it found dirty and how many
// bitmap lines it flushed.
func writeBackLines(t *testing.T, lay Layout) (slabs, lines []int) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 128 << 20})
	opts := DefaultOptions(LOG)
	opts.Arenas = 1
	h, err := CreateLayout(dev, opts, lay)
	if err != nil {
		t.Fatal(err)
	}
	a := h.arenas[0]
	a.wal.WriteBack = func(c *pmem.Ctx) bool {
		dirty := 0
		for _, s := range a.dirty {
			if s.DirtyLines() != 0 {
				dirty++
			}
		}
		before := c.Local().CatFlush[pmem.CatMeta]
		flushed := a.writeBack(c)
		slabs = append(slabs, dirty)
		lines = append(lines, int(c.Local().CatFlush[pmem.CatMeta]-before))
		return flushed
	}
	th := h.NewThread()
	defer th.Close()
	rng := rand.New(rand.NewSource(7))
	size := func() uint64 { return uint64(128 + rng.Intn(897)) }
	table := make([]pmem.PAddr, 1000)
	for i := range table {
		if table[i], err = th.Malloc(size()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		k := rng.Intn(len(table))
		if err := th.Free(table[k]); err != nil {
			t.Fatal(err)
		}
		if table[k], err = th.Malloc(size()); err != nil {
			t.Fatal(err)
		}
	}
	return slabs, lines
}

// TestWriteBackLinesPerCheckpoint: with sequential bitmaps a slab of a
// class of 128 bytes or more keeps all its bits in one line, so a
// checkpoint writes back at most one line per slab it finds dirty. The
// paper's layout spreads the same bits over six lines and pays for it at
// every checkpoint.
func TestWriteBackLinesPerCheckpoint(t *testing.T) {
	sum := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	slabs, lines := writeBackLines(t, DefaultOptions(LOG).layout())
	if len(lines) < 50 {
		t.Fatalf("%d checkpoint moves: the trace no longer wraps the ring", len(lines))
	}
	for i := range lines {
		if lines[i] > slabs[i] {
			t.Errorf("checkpoint %d: %d lines written back for %d dirty slabs, want at most one each", i, lines[i], slabs[i])
		}
	}
	_, paper := writeBackLines(t, Layout{Bitmap: 6, Tcache: 6, WAL: 6})
	t.Logf("%d checkpoints: %d lines written back, %d with six-way interleaved bitmaps (%.1fx)",
		len(lines), sum(lines), sum(paper), float64(sum(paper))/float64(sum(lines)))
	if sum(paper) < 2*sum(lines) {
		t.Errorf("six-way bitmaps write back %d lines, sequential ones %d: want at least twice as many", sum(paper), sum(lines))
	}
}

// TestOpenMixedBitmapLayouts: a heap whose slabs were formatted six-way
// interleaved — as every NVAlloc-LOG heap was before bitmaps followed the
// persist schedule — reopens under today's rule. New slabs are sequential,
// the old ones are served from and freed into as they are, a morph lays its
// target out sequentially, and a crash on top of all of it replays.
func TestOpenMixedBitmapLayouts(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 2
	h, err := CreateLayout(dev, opts, Layout{Bitmap: 6, Tcache: 6, WAL: 6})
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	live := map[pmem.PAddr]bool{}
	// Two full slabs and a bit of 1 KiB blocks, one slab of 256-byte ones.
	var kib []pmem.PAddr
	for i := 0; i < 140; i++ {
		p, err := th.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		kib = append(kib, p)
		live[p] = true
	}
	for i := 0; i < 100; i++ {
		p, err := th.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		live[p] = true
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h, _, err = Open(dev, DefaultOptions(LOG)) // morphing is the opener's choice
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.Layout(), (Layout{Bitmap: 1, Tcache: 1, WAL: 6}); got != want {
		t.Fatalf("reopened layout %+v, want %+v", got, want)
	}
	old := h.LayoutCensus()
	if len(old) != 1 || old[6] < 4 {
		t.Fatalf("slabs by stripe count after the reopen: %v, want only six-way ones", old)
	}
	oldBase := func(p pmem.PAddr) bool {
		s := h.slabs.Lookup(p &^ (slab.Size - 1))
		return s != nil && s.Stripes() == 6
	}

	// Serve from the old slabs: the partly filled ones have room.
	th = h.NewThread()
	served := 0
	for i := 0; i < 20; i++ {
		p, err := th.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if live[p] {
			t.Fatalf("block %#x handed out twice", p)
		}
		live[p] = true
		if oldBase(p) {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no allocation was served from a six-way slab")
	}
	// Free into them: all but two blocks of the first 1 KiB slab, which
	// drops it under the morph threshold. The frees come from a thread of
	// the other arena where the slab is not this thread's, and through the
	// tcache where it is; the thread is closed so nothing stays reserved.
	first := kib[0] &^ (slab.Size - 1)
	kept := 0
	for _, p := range kib {
		if p&^(slab.Size-1) != first {
			continue
		}
		if kept < 2 {
			kept++
			continue
		}
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
		delete(live, p)
	}
	th.Close()
	// Morph it: the first allocation of an unused class by the arena that
	// owns the slab.
	morphs, _ := h.MorphStats()
	var ths []*Thread
	for i := 0; i < 2; i++ {
		th := h.NewThread().(*Thread)
		ths = append(ths, th)
		for j := 0; j < 30; j++ {
			p, err := alloc.MallocTo(th, h.RootSlot(i*30+j), 1536)
			if err != nil {
				t.Fatal(err)
			}
			live[p] = true
		}
	}
	if after, _ := h.MorphStats(); after == morphs {
		t.Fatal("no slab morphed")
	}
	if s := h.slabs.Lookup(first); s == nil || s.OldClass < 0 || s.Stripes() != 1 {
		t.Fatalf("slab %#x after the morph: %+v, want a slab_in with a sequential bitmap", first, s)
	}
	if census := h.LayoutCensus(); census[1] == 0 || census[6] == 0 {
		t.Fatalf("slabs by stripe count %v, want both layouts side by side", census)
	}
	for _, th := range ths {
		th.Ctx().Merge()
	}

	dev.Crash()
	if issues := Check(dev, Options{}); len(issues) != 0 {
		t.Fatalf("Check after the crash: %q", issues)
	}
	h, _, err = Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Recovery().EntriesReplayed == 0 {
		t.Fatal("the crash left nothing to replay")
	}
	objects := 0
	h.Objects(func(o Object) bool {
		objects++
		if !live[o.Addr] {
			t.Errorf("%d-byte object at %#x is allocated after recovery; it was freed, or never allocated", o.Size, o.Addr)
		}
		return true
	})
	if objects != len(live) {
		t.Errorf("%d objects after recovery, %d blocks were live at the crash", objects, len(live))
	}
	th = h.NewThread()
	for p := range live {
		if err := th.Free(p); err != nil {
			t.Fatalf("free of live block %#x after recovery: %v", p, err)
		}
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if issues := Check(dev, Options{}); len(issues) != 0 {
		t.Fatalf("Check after the clean shutdown: %q", issues)
	}
}
