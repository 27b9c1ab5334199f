package core

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// procCounts are the GOMAXPROCS settings the parallel header pass and
// ring scans must not be able to tell apart: one worker, fewer workers
// than arenas, and (on most machines) more workers than cores.
var procCounts = []int{1, 2, 8}

// atProcs runs fn with GOMAXPROCS set to n.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// slabImage builds a cleanly closed 16-arena heap of variant v whose slabs
// land in every arena at Open: each of 16 threads allocates 32-, 64- and
// 128-byte blocks, a slab of each class per arena, and one thread
// allocates two slabs' worth of 2 KiB blocks, which fills at least one. Every block stays allocated and reachable from a root. It
// returns the device and the slab bases in address order.
func slabImage(t *testing.T, v Variant) (*pmem.Device, []pmem.PAddr) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
	h, err := Create(dev, DefaultOptions(v))
	if err != nil {
		t.Fatal(err)
	}
	var ths []*Thread
	for i := 0; i < 16; i++ {
		ths = append(ths, h.NewThread().(*Thread))
	}
	// chain links each new block to the thread's previous one and roots
	// the newest, so that NVAlloc-GC's sweep keeps every block.
	chain := func(i int, size uint64) {
		th := ths[i]
		p, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		th.Ctx().PersistU64(pmem.CatOther, p, dev.ReadU64(h.RootSlot(i)))
		th.Ctx().PersistU64(pmem.CatOther, h.RootSlot(i), uint64(p))
	}
	for i := range ths {
		for _, size := range []uint64{32, 64, 128} {
			for k := 0; k < 3+i%4; k++ {
				chain(i, size)
			}
		}
	}
	for i := 2 * slab.BlocksPerSlab(sizeclass.Class(2048), h.lay.Bitmap); i > 0; i-- {
		chain(0, 2048)
	}
	for _, th := range ths {
		th.Close()
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	var bases []pmem.PAddr
	h.slabs.Range(func(base pmem.PAddr, _ *slab.Slab) bool {
		bases = append(bases, base)
		return true
	})
	if len(bases) < 3*len(ths) {
		t.Fatalf("%d slabs, want at least %d", len(bases), 3*len(ths))
	}
	return dev, bases
}

// morphSlab morphs the slab at base of a closed image to 256-byte blocks
// through the slab package, as an arena would. With cut > 0 the power
// fails once cut of the morph's flushes have reached the media.
func morphSlab(t *testing.T, dev *pmem.Device, base pmem.PAddr, cut int64) *slab.Slab {
	t.Helper()
	c := dev.NewCtx()
	s, err := slab.Open(dev.Mem(), c, base)
	if err != nil {
		t.Fatal(err)
	}
	s.Build(c)
	if cut > 0 {
		dev.CrashAfterFlushes(cut)
	}
	if err := s.MorphTo(c, sizeclass.Class(256), s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	if cut > 0 {
		if !dev.Crashed() {
			t.Fatalf("slab %#x: the morph ended before flush %d", base, cut)
		}
		dev.Crash()
	}
	return s
}

// pendingDemotion morphs the slab at base, frees every old block the morph
// carried over, and fails the power just before the flag word of the
// demotion the last free ends with reaches the media: the slab reads as a
// slab_in without a live old block, whose demotion Open must finish.
func pendingDemotion(t *testing.T, dev *pmem.Device, base pmem.PAddr) {
	t.Helper()
	s := morphSlab(t, dev, base, 0)
	old := s.OldIndices()
	if len(old) == 0 {
		t.Fatalf("slab %#x carried no old block over", base)
	}
	c := dev.NewCtx()
	for _, idx := range old[:len(old)-1] {
		if _, err := s.FreeOldBlock(c, idx, true); err != nil {
			t.Fatal(err)
		}
	}
	last := old[len(old)-1]
	// Count the last free's flushes on a copy; the demotion's flag word is
	// the last of them.
	cp := dev.Clone()
	cc := cp.NewCtx()
	sc, err := slab.Open(cp.Mem(), cc, base)
	if err != nil {
		t.Fatal(err)
	}
	sc.Build(cc)
	before := cc.Local().Flushes
	if done, err := sc.FreeOldBlock(cc, last, true); err != nil || !done {
		t.Fatalf("last old block of slab %#x: done %v, %v", base, done, err)
	}
	dev.CrashAfterFlushes(int64(cc.Local().Flushes-before) - 1)
	if _, err := s.FreeOldBlock(c, last, true); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
}

// crashOnArenas reopens the heap on dev and crashes a session whose
// threads sit on arenas 0, 1 and 2, the thread on arena k doing 16 + 12k
// small allocations and freeing every fourth: on NVAlloc-LOG, three rings
// of unequal length that the crash leaves live.
func crashOnArenas(t *testing.T, dev *pmem.Device) {
	t.Helper()
	h, _, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range 3 {
		th := h.NewThread()
		for i := range 16 + 12*k {
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if err := th.Free(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		th.Ctx().Merge()
	}
	dev.Crash()
}

// ring is one WAL ring of a heap image as a worker of Open scans it.
type ring struct {
	base    pmem.PAddr
	entries []walog.Entry
	scanNS  int64 // the virtual time its scan takes
}

// scanImage scans every WAL ring of the heap on dev, each on a fresh
// context, the way Open's workers do, on a copy of the device.
func scanImage(t *testing.T, dev *pmem.Device) []ring {
	t.Helper()
	d := dev.Clone()
	n := int(d.ReadU64(superBase + sbWALEnts))
	size := pmem.PAddr(walog.RegionSize(n, int(d.ReadU64(superBase+sbStripes))))
	base := pmem.PAddr(d.ReadU64(superBase + sbWALBase))
	rings := make([]ring, d.ReadU64(superBase+sbArenas))
	for i := range rings {
		r := &rings[i]
		r.base = base + pmem.PAddr(i)*size
		l, err := walog.New(d.Mem(), r.base, n, int(d.ReadU64(superBase+sbWALStripes)))
		if err != nil {
			t.Fatal(err)
		}
		c := d.NewCtx()
		if r.entries, err = l.Replay(c); err != nil {
			t.Fatal(err)
		}
		r.scanNS = c.Now
	}
	return rings
}

// liveRings returns the number of rings with live entries and whether any
// two of them differ in length.
func liveRings(rings []ring) (live int, unequal bool) {
	first := -1
	for _, r := range rings {
		if len(r.entries) == 0 {
			continue
		}
		live++
		if first < 0 {
			first = len(r.entries)
		}
		unequal = unequal || len(r.entries) != first
	}
	return live, unequal
}

// openState is what Open leaves that the order of its header reads or
// ring scans could change.
type openState struct {
	TotalNS      int64
	WALNS        int64
	WALWorkNS    int64
	BitmapsBuilt int
	Slabs        []slabState    // the page map, in its (address) order
	Freelists    [][]pmem.PAddr // per arena: every class's list, head first, classes in order
	LRUs         [][]pmem.PAddr // per arena, head first
	Objects      []Object
}

type slabState struct {
	Base         pmem.PAddr
	Class, Owner int
	SlabIn       bool
}

func stateOf(h *Heap, ns int64) openState {
	rep := h.Recovery()
	st := openState{TotalNS: ns, WALNS: rep.WALNS, WALWorkNS: rep.WALWorkNS, BitmapsBuilt: rep.BitmapsBuilt}
	h.slabs.Range(func(base pmem.PAddr, s *slab.Slab) bool {
		st.Slabs = append(st.Slabs, slabState{base, s.Class, s.Owner, s.IsSlabIn()})
		return true
	})
	for _, a := range h.arenas {
		var free, lru []pmem.PAddr
		for _, head := range a.freelists {
			for s := head; s != nil; s = s.FreeNext {
				free = append(free, s.Base)
			}
		}
		for s := a.lruHead; s != nil; s = s.LRUNext {
			lru = append(lru, s.Base)
		}
		st.Freelists = append(st.Freelists, free)
		st.LRUs = append(st.LRUs, lru)
	}
	// Last: Objects builds every bitmap.
	h.Objects(func(o Object) bool { st.Objects = append(st.Objects, o); return true })
	return st
}

// TestParallelOpenMatchesSerial: a crashed LOG, GC and IC heap with slabs
// in every arena, a slab_in and a full slab among them, and a crashed
// session on three arenas (on LOG, three live rings of unequal length),
// opened at GOMAXPROCS 1, 2 and 8, comes back the same every time: virtual
// time, the WAL phase's span and work, bitmaps built, page map and owners,
// every arena's freelists and LRU list in order, and the objects. Owners
// are the serial pass's: the n-th slab in address order belongs to arena n
// mod arenas.
func TestParallelOpenMatchesSerial(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		t.Run(v.String(), func(t *testing.T) {
			dev, bases := slabImage(t, v)
			morphSlab(t, dev, bases[len(bases)/2], 0)
			// A short session that crashes, so that LOG replays and GC sweeps.
			crashOnArenas(t, dev)
			if live, unequal := liveRings(scanImage(t, dev)); v == LOG && (live < 3 || !unequal) {
				t.Fatalf("%d live rings (unequal lengths: %v), want at least 3 of unequal length", live, unequal)
			}

			var ref openState
			for _, n := range procCounts {
				atProcs(n, func() {
					h, ns, err := Open(dev.Clone(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					st := stateOf(h, ns)
					if n == procCounts[0] {
						ref = st
						checkSerialOwners(t, h, st)
						return
					}
					if !reflect.DeepEqual(st, ref) {
						diffStates(t, n, st, ref)
					}
				})
			}
		})
	}
}

// checkSerialOwners checks the serial pass's ownership rule on st, and that
// the image exercised what the test claims: slabs in every arena, a slab_in
// and a full slab.
func checkSerialOwners(t *testing.T, h *Heap, st openState) {
	t.Helper()
	arenas := len(h.arenas)
	owned := make([]int, arenas)
	slabIn, full := 0, 0
	for i, s := range st.Slabs {
		if s.Owner != i%arenas {
			t.Errorf("slab %d (%#x) is owned by arena %d, want %d", i, s.Base, s.Owner, i%arenas)
		}
		owned[s.Owner]++
		if s.SlabIn {
			slabIn++
		}
		if sl := h.slabs.Lookup(s.Base); sl.Built() && sl.FreeCount() == 0 {
			full++
		}
	}
	if slices.Contains(owned, 0) {
		t.Errorf("slabs per arena %v: an arena owns none", owned)
	}
	if slabIn == 0 || full == 0 {
		t.Errorf("%d slab_in and %d full slabs, want some of each", slabIn, full)
	}
}

func diffStates(t *testing.T, procs int, got, want openState) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("GOMAXPROCS %d: %s differs from GOMAXPROCS %d's", procs, g.Type().Field(i).Name, procCounts[0])
		}
	}
}

// slabAt returns the first slab at or after position from in bases whose
// blocks are smaller than 256 bytes (so it can morph to 256).
func slabAt(t *testing.T, dev *pmem.Device, bases []pmem.PAddr, from int) (int, pmem.PAddr) {
	t.Helper()
	for i := from; i < len(bases); i++ {
		s, err := slab.Open(dev.Mem(), dev.NewCtx(), bases[i])
		if err != nil {
			t.Fatal(err)
		}
		if s.Class < sizeclass.Class(256) {
			return i, bases[i]
		}
	}
	t.Fatalf("no small-block slab at or after position %d of %d", from, len(bases))
	return 0, 0
}

// TestParallelOpenFirstCorruptionWins: two slab headers are damaged, the
// one at the lower address in a higher-numbered arena than the other, so a
// worker can meet the other first. Open fails on the lower address at
// every GOMAXPROCS, as the serial pass did. The same holds for two damaged
// WAL rings (firstRingCorruptionWins).
func TestParallelOpenFirstCorruptionWins(t *testing.T) {
	t.Run("headers", func(t *testing.T) {
		dev, bases := slabImage(t, LOG)
		const arenas = 16
		lo, hi := 6, 17 // arenas 6 and 1
		for _, i := range []int{lo, hi} {
			dev.WriteU32(bases[i], ^dev.ReadU32(bases[i])) // the magic
		}
		for _, n := range procCounts {
			atProcs(n, func() {
				for rep := 0; rep < 5; rep++ {
					_, _, err := Open(dev.Clone(), Options{})
					var ce *pmem.CorruptError
					if !errors.As(err, &ce) || ce.Addr != bases[lo] {
						t.Fatalf("GOMAXPROCS %d: Open returned %v, want the corrupt header at %#x (arena %d), not %#x (arena %d)",
							n, err, bases[lo], lo%arenas, bases[hi], hi%arenas)
					}
				}
			})
		}
	})
	t.Run("rings", firstRingCorruptionWins)
}

// TestParallelOpenRepairsInAddressOrder: a morph cut at flag 1, one at flag
// 2 and a pending demotion sit in three arenas, the lowest address in the
// highest arena. At every GOMAXPROCS the flushes Open makes inside slabs
// are exactly the three repairs' — each what slab.Open alone flushes on
// that slab — in address order.
func TestParallelOpenRepairsInAddressOrder(t *testing.T) {
	dev, bases := slabImage(t, LOG)
	const arenas = 16
	// The morph's first flushes: the header line and the flag word (flag 1
	// persisted), then the index table and the flag word (flag 2).
	idxLines := int64((slab.IdxCapEntries*2 + pmem.LineSize - 1) / pmem.LineSize)
	p1, flag1 := slabAt(t, dev, bases, 6)
	p2, flag2 := slabAt(t, dev, bases, 17)
	p3, demote := slabAt(t, dev, bases, 35)
	if a1, a2, a3 := p1%arenas, p2%arenas, p3%arenas; a1 == a2 || a2 == a3 || a1 == a3 || a1 < a2 {
		t.Fatalf("repairs in arenas %d, %d, %d: want three, the lowest address not in the lowest arena", a1, a2, a3)
	}
	morphSlab(t, dev, flag1, 2)
	morphSlab(t, dev, flag2, 2+idxLines+1)
	pendingDemotion(t, dev, demote)
	img := slices.Clone(dev.Bytes(0, int(dev.Size())))

	// journaled runs fn on a fresh journaled device holding the image and
	// returns its flushes.
	journaled := func(fn func(d *pmem.Device)) []pmem.FlushDelta {
		d := pmem.New(pmem.Config{Size: dev.Size(), Strict: true, Journal: true})
		d.Restore(img)
		fn(d)
		return d.JournalSnapshot()
	}
	var want []pmem.FlushDelta
	for _, r := range []struct {
		base    pmem.PAddr
		what    string
		flushes func(int) bool
	}{
		{flag1, "flag-1 undo", func(n int) bool { return n == 1 }}, // the flag word
		{flag2, "flag-2 undo", func(n int) bool { return n > 2 }},  // the old bitmap, the header line, the flag word
		{demote, "demotion", func(n int) bool { return n == 1 }},   // the flag word
	} {
		fl := journaled(func(d *pmem.Device) {
			if _, err := slab.Open(d.Mem(), d.NewCtx(), r.base); err != nil {
				t.Fatal(err)
			}
		})
		if !r.flushes(len(fl)) {
			t.Fatalf("%s of slab %#x flushes %d lines: the cut is not where the test means it", r.what, r.base, len(fl))
		}
		want = append(want, fl...)
	}
	inSlab := func(fd pmem.FlushDelta) bool {
		a := pmem.PAddr(fd.Line * pmem.LineSize)
		_, found := slices.BinarySearch(bases, a&^(slab.Size-1))
		return found
	}
	for _, n := range procCounts {
		atProcs(n, func() {
			var got []pmem.FlushDelta
			for _, fd := range journaled(func(d *pmem.Device) {
				if _, _, err := Open(d, Options{}); err != nil {
					t.Fatal(err)
				}
			}) {
				if inSlab(fd) {
					got = append(got, fd)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d: Open flushed %d lines inside slabs, want the %d of the repairs in address order",
					n, len(got), len(want))
			}
		})
	}
}

// firstRingCorruptionWins: the rings of arenas 1 and 2 of a crashed LOG
// heap are damaged, each at its oldest live entry, and the ring of arena 0
// is live and intact. Whichever worker meets its damaged ring first, Open
// fails on arena 1's, the first damaged ring in arena order, as the serial
// scan did, at every GOMAXPROCS — after a plain crash and after a crash
// inside Close — and no ring's checkpoint word has moved: nothing is
// applied or retired before every ring is scanned.
func firstRingCorruptionWins(t *testing.T) {
	dev, _ := slabImage(t, LOG)
	crashOnArenas(t, dev)
	rings := scanImage(t, dev)
	capacity, stripes := int(dev.ReadU64(superBase+sbWALEnts)), int(dev.ReadU64(superBase+sbWALStripes))
	var oldest [3]pmem.PAddr // each ring's oldest live entry
	for a := range oldest {
		if len(rings[a].entries) < 2 {
			t.Fatalf("ring %d holds %d live entries, want at least 2", a, len(rings[a].entries))
		}
		// Protected lists the ring's checkpoint line, then its live entries
		// but the newest, oldest first.
		oldest[a] = walog.Protected(dev, rings[a].base, 1, capacity, stripes)[1].Start
	}
	for _, a := range []int{1, 2} {
		dev.WriteU64(oldest[a], ^dev.ReadU64(oldest[a])) // the sequence number
	}
	ckpts := func(d *pmem.Device) []uint64 {
		var words []uint64
		for _, r := range rings {
			words = append(words, d.ReadU64(r.base))
		}
		return words
	}
	before := ckpts(dev)
	for _, state := range []uint64{stateRecovery, stateClosing} {
		dev.WriteU64(superBase+sbState, pmem.SealU64(state))
		for _, n := range procCounts {
			atProcs(n, func() {
				for rep := 0; rep < 5; rep++ {
					d := dev.Clone()
					_, _, err := Open(d, Options{})
					var ce *pmem.CorruptError
					if !errors.As(err, &ce) || ce.Addr != oldest[1] {
						t.Fatalf("state %d, GOMAXPROCS %d: Open returned %v, want the damaged entry at %#x (arena 1), not %#x (arena 2)",
							state, n, err, oldest[1], oldest[2])
					}
					if got := ckpts(d); !slices.Equal(got, before) {
						t.Fatalf("state %d, GOMAXPROCS %d: the checkpoint words read %#x after the failed Open, %#x before", state, n, got, before)
					}
				}
			})
		}
	}
}

// TestParallelOpenWALSpan: on a crashed LOG heap with three live rings of
// unequal length, the WAL phase takes the longest ring's scan plus what
// runs after the scans on Open's context (the apply), and its work is
// every ring's scan plus the same apply. Each ring's scan is measured on
// its own, by walog.Replay on a fresh context; a ring of k live entries
// reads k + 1 slots.
func TestParallelOpenWALSpan(t *testing.T) {
	dev, _ := slabImage(t, LOG)
	crashOnArenas(t, dev)
	rings := scanImage(t, dev)
	if live, unequal := liveRings(rings); live < 3 || !unequal {
		t.Fatalf("%d live rings (unequal lengths: %v), want at least 3 of unequal length", live, unequal)
	}
	var longest, sum int64
	entries := 0
	for a, r := range rings {
		if want := int64(walog.SlotReadNS * (len(r.entries) + 1)); r.scanNS != want {
			t.Errorf("ring %d: %d live entries scanned in %d ns, want %d", a, len(r.entries), r.scanNS, want)
		}
		longest = max(longest, r.scanNS)
		sum += r.scanNS
		entries += len(r.entries)
	}
	for _, n := range procCounts {
		atProcs(n, func() {
			h, _, err := Open(dev.Clone(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep := h.Recovery()
			apply := rep.WALNS - longest
			if apply <= 0 {
				t.Fatalf("GOMAXPROCS %d: WAL phase %d ns, no longer than the longest ring's scan (%d ns)", n, rep.WALNS, longest)
			}
			if want := sum + apply; rep.WALWorkNS != want {
				t.Errorf("GOMAXPROCS %d: WAL work %d ns, want the %d ns of scans plus the %d ns apply, %d", n, rep.WALWorkNS, sum, apply, want)
			}
			if rep.EntriesReplayed != entries {
				t.Errorf("GOMAXPROCS %d: %d entries replayed, want the scans' %d", n, rep.EntriesReplayed, entries)
			}
		})
	}
}

// TestOpenAfterCrashInsideClose: Close's crash lands right after it seals
// the closing state, while the rings of arenas 0, 1 and 2 still hold live
// entries. Open scans them, retires every entry unapplied, and flushes the
// checkpoint word of each live ring, and nothing else of the WAL region,
// in arena order; the rings then hold no live entry.
func TestOpenAfterCrashInsideClose(t *testing.T) {
	// session builds the heap and runs a session on three arenas, leaving
	// the heap open with every thread closed.
	session := func(dev *pmem.Device) *Heap {
		h, err := Create(dev, DefaultOptions(LOG))
		if err != nil {
			t.Fatal(err)
		}
		slot := 0
		for k := range 3 {
			th := h.NewThread()
			for range 4 + 3*k {
				slot++
				if _, err := alloc.MallocTo(th, h.RootSlot(slot), 64); err != nil {
					t.Fatal(err)
				}
			}
			th.Close()
		}
		return h
	}
	const size = 32 << 20
	stateLine := uint64(superBase+sbState) / pmem.LineSize
	// Find the closing state's flush among Close's.
	jd := pmem.New(pmem.Config{Size: size, Strict: true, Journal: true})
	h := session(jd)
	opened := len(jd.JournalSnapshot())
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	cut := 0
	for i, fd := range jd.JournalSnapshot()[opened:] {
		if fd.Line == stateLine {
			cut = i + 1
			break
		}
	}
	if cut == 0 {
		t.Fatal("Close flushed no state word")
	}
	dev := pmem.New(pmem.Config{Size: size, Strict: true})
	h = session(dev)
	dev.CrashAfterFlushes(int64(cut))
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if !dev.Crashed() {
		t.Fatalf("Close ended before flush %d", cut)
	}
	dev.Crash()
	if st, _ := pmem.UnsealU64(dev.ReadU64(superBase + sbState)); st != stateClosing {
		t.Fatalf("the crash left state %d, want closing (%d)", st, stateClosing)
	}
	rings := scanImage(t, dev)
	var live []uint64 // the live rings' checkpoint lines, in arena order
	entries := 0
	for _, r := range rings {
		if len(r.entries) > 0 {
			live = append(live, uint64(r.base)/pmem.LineSize)
			entries += len(r.entries)
		}
	}
	if len(live) != 3 {
		t.Fatalf("%d live rings at the crash, want the 3 the session's threads used", len(live))
	}

	for _, n := range procCounts {
		atProcs(n, func() {
			d := pmem.New(pmem.Config{Size: size, Strict: true, Journal: true})
			d.Restore(slices.Clone(dev.Bytes(0, size)))
			h, _, err := Open(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep := h.Recovery()
			if rep.EntriesReplayed != entries || rep.EntriesRetired != entries {
				t.Errorf("GOMAXPROCS %d: %d entries scanned and %d retired, want all %d both", n, rep.EntriesReplayed, rep.EntriesRetired, entries)
			}
			walStart := uint64(rings[0].base) / pmem.LineSize
			walEnd := uint64(rings[len(rings)-1].base+(rings[1].base-rings[0].base)) / pmem.LineSize
			var got []uint64
			for _, fd := range d.JournalSnapshot() {
				if fd.Line >= walStart && fd.Line < walEnd {
					got = append(got, fd.Line)
				}
			}
			if !slices.Equal(got, live) {
				t.Errorf("GOMAXPROCS %d: Open flushed WAL lines %v, want the live rings' checkpoint lines %v in arena order", n, got, live)
			}
			for a, r := range scanImage(t, d) {
				if len(r.entries) > 0 {
					t.Errorf("GOMAXPROCS %d: ring %d still holds %d live entries", n, a, len(r.entries))
				}
			}
		})
	}
}
