package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// crashedLOGHeap builds a 16-arena NVAlloc-LOG heap with ringEntries-slot
// rings, runs a fixed single-thread session on it — publishes, anonymous
// blocks, a few extents, fewer appends than the smallest ring holds — and
// drops it without Close. With lose, the power fails (pmem.Device.Crash)
// and every line not flushed is lost; without, the cache image survives,
// as a killed process's mapped heap file does.
func crashedLOGHeap(t *testing.T, ringEntries int, lose bool) *pmem.Device {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.WALEntries = ringEntries
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	// Extents first: publishing one moves the ring's checkpoint past
	// everything before it, and the crash should find live entries.
	for i := 0; i < 3; i++ {
		if _, err := alloc.MallocTo(th, h.RootSlot(20+i), 40<<10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := alloc.MallocTo(th, h.RootSlot(i), uint64(64+i*40)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		p, err := th.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	th.Ctx().Merge()
	if lose {
		dev.Crash()
	}
	return dev
}

// TestOpenScanFollowsLiveEntries: the ring scan charges
// walog.SlotReadNS of CatSearch per slot it reads, and it reads each
// ring's live entries and the one slot where the log stops. The same
// crashed session on rings of two capacities costs the same search time,
// and what the crash adds over opening the same image as if it had shut
// down cleanly (which builds no bitmap) is exactly that scan plus replay's
// bitmap reads, counted apart: after a power failure, blocks/8 for each
// slab whose lost bits replay rebuilt; after a kill, whose cache image
// survives, one per bit checked and no slab built.
func TestOpenScanFollowsLiveEntries(t *testing.T) {
	const arenas = 16
	for _, lose := range []bool{true, false} {
		search := func(ringEntries int, crashed bool) (int64, *Heap) {
			dev := crashedLOGHeap(t, ringEntries, lose)
			if !crashed {
				dev.WriteU64(superBase+sbState, pmem.SealU64(stateShutdown))
			}
			before := dev.Stats().CatNS[pmem.CatSearch]
			h, _, err := Open(dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return dev.Stats().CatNS[pmem.CatSearch] - before, h
		}
		small, _ := search(MinWALEntries, true)
		large, h := search(1024, true)
		rep := h.Recovery()
		if rep.EntriesReplayed == 0 {
			t.Fatal("no live WAL entry at the crash: the test replays nothing")
		}
		if large != small {
			t.Fatalf("lose=%v: Open's search time is %d ns on %d-slot rings and %d ns on 1024-slot rings: the scan grows with capacity",
				lose, small, MinWALEntries, large)
		}
		clean, hc := search(1024, false)
		if b := hc.Recovery().BitmapsBuilt; b != 0 {
			t.Fatalf("a clean open built %d bitmaps", b)
		}
		var builds int64
		h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
			if s.Built() {
				builds += int64(s.Blocks) / 8
			}
			return true
		})
		var reads int64
		switch {
		case lose && rep.BitmapsBuilt > 0:
			reads = builds
		case !lose && rep.BitmapsBuilt == 0 && rep.BitsChecked > 0:
			reads = int64(rep.BitsChecked)
		default:
			t.Fatalf("lose=%v: replay built %d bitmaps and checked %d bits", lose, rep.BitmapsBuilt, rep.BitsChecked)
		}
		if got, want := large-clean-reads, int64(walog.SlotReadNS*(rep.EntriesReplayed+arenas)); got != want {
			t.Fatalf("lose=%v: the ring scans charge %d ns of search, want %d: %d live entries and one stop slot in each of %d rings",
				lose, got, want, rep.EntriesReplayed, arenas)
		}
	}
}

// TestOpenIgnoresRetiredSlots: recovery reads the live window of a ring,
// not its retired slots. Arena 1 worked in a session that closed cleanly,
// so every entry of its ring is below the checkpoint, and it sits idle
// through the session that crashes; a bit flipped in one of those retired
// slots is never read — the open succeeds and replays nothing from that
// ring. Nor is it left to trip a later recovery: arena 1 then appends more
// than a lap, which rewrites the slot whole, and a second crash replays
// every live entry of both rings.
func TestOpenIgnoresRetiredSlots(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	h, err := Create(dev, DefaultOptions(LOG))
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := h.NewThread(), h.NewThread() // arenas 0 and 1
	for i := 0; i < 6; i++ {
		if _, err := t0.Malloc(64); err != nil {
			t.Fatal(err)
		}
		if _, err := t1.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	t0.Close()
	t1.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h, _, err = Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread() // arena 0 again
	for i := 0; i < 6; i++ {
		if _, err := th.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	th.Ctx().Merge()

	opts := h.Options()
	region := pmem.PAddr(walog.RegionSize(opts.WALEntries, opts.Stripes))
	// live counts ring i's entries past its persisted checkpoint.
	live := func(h *Heap, i int) int {
		ckpt, _ := pmem.UnsealU64(dev.ReadU64(h.walBase() + pmem.PAddr(i)*region))
		return int(h.arenas[i].wal.Seq() - 1 - ckpt)
	}
	if live(h, 1) != 0 {
		t.Fatalf("arena 1's ring holds %d live entries at the crash, want none", live(h, 1))
	}
	want := live(h, 0)
	dev.Crash()

	ring1 := pmem.Range{Start: h.walBase() + region, End: h.walBase() + 2*region}
	// Flip the first entry past the checkpoint line: its first nonzero
	// word is its sequence number.
	flipped, seq := pmem.Null, uint64(0)
	for a := ring1.Start + pmem.LineSize; a < ring1.End; a += 8 {
		if seq = dev.ReadU64(a); seq != 0 {
			dev.WriteU8(a, dev.ReadU8(a)^0x10)
			flipped = a
			break
		}
	}
	if flipped == pmem.Null {
		t.Fatal("arena 1's ring holds no entry")
	}
	h, _, err = Open(dev, Options{})
	if err != nil {
		t.Fatalf("Open after flipping a retired slot of an idle ring: %v", err)
	}
	if got := h.Recovery().EntriesReplayed; got != want {
		t.Fatalf("replayed %d entries, want arena 0's %d", got, want)
	}

	// Arena 1 appends past a lap, until the flipped slot sits a few entries
	// behind its newest; a publish and a retraction of one root slot append
	// one entry each.
	h.NewThread()
	w1 := h.NewThread().(*Thread)
	if w1.arena.index != 1 {
		t.Fatalf("second thread runs on arena %d, want 1", w1.arena.index)
	}
	ring, n := h.arenas[1].wal, uint64(opts.WALEntries)
	start := ring.Seq()
	var p pmem.PAddr
	for ring.Seq()-start <= n || (ring.Seq()-1-seq)%n != 8 {
		if ring.Seq()-start > 4*n {
			t.Fatal("arena 1's ring does not reach the flipped slot")
		}
		if p == pmem.Null {
			p, err = alloc.MallocTo(w1, h.RootSlot(0), 64)
		} else {
			p, err = pmem.Null, alloc.FreeFrom(w1, h.RootSlot(0))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	w1.Ctx().Merge()
	if live(h, 1) <= 8 {
		t.Fatalf("arena 1's live window holds %d entries, not the flipped slot 8 behind its newest", live(h, 1))
	}
	want = live(h, 0) + live(h, 1)
	dev.Crash()
	h, _, err = Open(dev, Options{})
	if err != nil {
		t.Fatalf("Open after arena 1 rewrote the flipped slot: %v", err)
	}
	if got := h.Recovery().EntriesReplayed; got != want {
		t.Fatalf("replayed %d entries, want every live one of both rings: %d", got, want)
	}
	if got := pmem.PAddr(dev.ReadU64(h.RootSlot(0))); got != p || (p != pmem.Null && !h.BlockAllocated(p)) {
		t.Fatalf("root slot holds %#x after recovery, want %#x allocated", got, p)
	}
}

// TestOpenCompactsOnlyOverThreshold: Open runs the bookkeeping log's GC
// policy, not an unconditional rewrite. The same crashed image — five
// chunks of records and tombstones, none of them empty — is
// opened under the default threshold (far above it) and under a one-chunk
// threshold.
func TestOpenCompactsOnlyOverThreshold(t *testing.T) {
	live := map[pmem.PAddr]bool{}
	crashed := func() *pmem.Device {
		dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true, Journal: true})
		opts := DefaultOptions(LOG)
		opts.Arenas = 2
		h, err := Create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		var extents []pmem.PAddr
		for i := 0; i < 300; i++ {
			p, err := th.Malloc(64 << 10)
			if err != nil {
				t.Fatal(err)
			}
			extents = append(extents, p)
		}
		for i, p := range extents {
			if i%2 == 0 {
				if err := th.Free(p); err != nil {
					t.Fatal(err)
				}
			} else {
				live[p] = true
			}
		}
		if _, slow := h.Blog().GCCounts(); slow != 0 {
			t.Fatalf("%d slow GCs at run time under the default threshold: the log is smaller than the test assumes", slow)
		}
		th.Ctx().Merge()
		dev.Crash()
		return dev
	}
	// reopen recovers a fresh copy of the image (the session is
	// deterministic) and counts the bookkeeping-log lines Open flushed.
	reopen := func(threshold uint64) (*Heap, int) {
		t.Helper()
		dev := crashed()
		var blog pmem.Range
		for _, r := range Regions(dev) {
			if r.Name == "blog" {
				blog = r.Range
			}
		}
		start := dev.JournalLen()
		h, _, err := Open(dev, Options{BlogGCThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		flushes, extents := 0, 0
		for _, fd := range dev.JournalSnapshot()[start:] {
			if a := pmem.PAddr(fd.Line * pmem.LineSize); fd.Cat == pmem.CatMeta && a >= blog.Start && a < blog.End {
				flushes++
			}
		}
		h.Objects(func(o Object) bool {
			if !o.Slab {
				extents++
				if !live[o.Addr] {
					t.Errorf("recovered extent %#x was freed before the crash", o.Addr)
				}
			}
			return true
		})
		if extents != len(live) {
			t.Errorf("%d extents recovered, %d were live at the crash", extents, len(live))
		}
		return h, flushes
	}

	under, flushes := reopen(0)
	if flushes != 0 || under.Recovery().LogCompacted {
		t.Errorf("under the threshold Open flushed %d bookkeeping-log lines (log compacted: %v), want none",
			flushes, under.Recovery().LogCompacted)
	}
	if _, slow := under.Blog().GCCounts(); slow != 0 {
		t.Errorf("under the threshold Open ran %d slow GCs", slow)
	}

	over, flushes := reopen(1)
	if flushes == 0 || !over.Recovery().LogCompacted {
		t.Errorf("over the threshold Open flushed %d bookkeeping-log lines (log compacted: %v), want the log rewritten",
			flushes, over.Recovery().LogCompacted)
	}
	if _, slow := over.Blog().GCCounts(); slow != 1 {
		t.Errorf("over the threshold Open ran %d slow GCs, want 1", slow)
	}
	if a, b := over.Blog().ActiveChunks(), under.Blog().ActiveChunks(); a >= b {
		t.Errorf("compaction left %d active chunks of %d", a, b)
	}
}

// TestRecoveryPhaseBudget pins the virtual time of each phase of Open on a
// fixed heap, and that the phases are the whole of what Open returns. A
// phase that starts doing a job twice, or a job moved between phases,
// shows here by name.
func TestRecoveryPhaseBudget(t *testing.T) {
	check := func(lose bool, want Recovery) {
		t.Helper()
		h, ns, err := Open(crashedLOGHeap(t, 1024, lose), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := h.Recovery()
		if got.TotalNS() != ns {
			t.Errorf("lose=%v: phases sum to %d ns, Open returned %d", lose, got.TotalNS(), ns)
		}
		got.Wall = RecoveryWall{} // wall-clock time varies run to run
		if got != want {
			type raw Recovery // without the String method
			t.Errorf("lose=%v: recovery report\n got %+v\nwant %+v", lose, raw(got), raw(want))
		}
	}
	// After a power failure every slab replay names lost a bit: the first
	// check of each disagrees, and its bitmap is built for what Build alone
	// charges.
	check(true, Recovery{
		Crashed:   true,
		BookLogNS: 0, // the log under its threshold, no empty chunk
		// 11 live records (3 extents, 8 slabs): replay frees none, so none
		// is indexed, and no gap between them reaches past a chunk, so none
		// coalesces.
		ExtentNS: 0,
		// The headers, 8 over 16 arenas: the arena with the most reads 1
		// while the others read theirs.
		SlabNS:     1 * 20,
		SlabWorkNS: 8 * 20,
		// The rings are scanned one per worker: the span is the one ring
		// that holds all 24 live entries, read with its stop slot, while the
		// 15 empty rings read their stop slot each beside it. Then, on
		// Open's context: 8 lines (one per slab: sequential bitmaps), one
		// checkpoint word, two fences; the 8 bitmaps.
		WALNS:     (24+1)*5 + 2945 + 429,
		WALWorkNS: (24+16)*5 + 2945 + 429,
		// The first state word as below; the second a random flush and its
		// fence. The bookkeeping log's reopen flushed nothing (its break
		// word was written with its first chunk), so neither waits on bank 0.
		StateNS: 335 + 265 + 10,

		SlabsOpened:      8,
		BitmapsBuilt:     8,
		BitsChecked:      8,
		EntriesReplayed:  24,
		LinesWrittenBack: 8,
	})
	// After a kill the cache image holds every bit the rings want: replay
	// checks each of the 16 wanted blocks' bytes, builds no bitmap and
	// writes nothing back.
	check(false, Recovery{
		Crashed:    true,
		SlabNS:     1 * 20,
		SlabWorkNS: 8 * 20,
		// The scan's span and work as above; 16 bytes checked; the one
		// checkpoint word (a random flush, 265 + 60 for the write-combining
		// miss) and its fence. That word's line shares bank 0 with the first
		// state word only — the bookkeeping log's reopen flushed nothing —
		// so it does not wait: issued at 496 (state word 335, headers 20,
		// scan 125, checks 16), it ends the phase at 831.
		WALNS:     (24+1)*5 + 16 + 325 + 10,
		WALWorkNS: (24+16)*5 + 16 + 325 + 10,
		// The second state word's flush is a reflush of the first at
		// distance 1 (700), and its fence.
		StateNS:         335 + 710,
		SlabsOpened:     8,
		BitsChecked:     16,
		EntriesReplayed: 24,
	})
}

// builtSlabs returns the bases of h's slabs whose bitmap is built, and how
// many slabs h has.
func builtSlabs(h *Heap) (built map[pmem.PAddr]bool, slabs int) {
	built = map[pmem.PAddr]bool{}
	h.slabs.Range(func(base pmem.PAddr, s *slab.Slab) bool {
		slabs++
		if s.Built() {
			built[base] = true
		}
		return true
	})
	return built, slabs
}

// TestOpenBuildsOnlyTouchedBitmaps: a crashed LOG heap whose rings name a
// few of its slabs. Open reads every header, charging 20 ns each, and
// checks one bitmap byte per block the rings name. After a power failure,
// which lost a bit of every named slab, it builds exactly the named slabs'
// bitmaps, each at its first check; after a kill, whose cache image holds
// every named bit, it builds none.
func TestOpenBuildsOnlyTouchedBitmaps(t *testing.T) {
	for _, lose := range []bool{true, false} {
		dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
		h, err := Create(dev, DefaultOptions(LOG))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		var first []pmem.PAddr
		for i := 0; i < 600; i++ {
			p, err := th.Malloc(uint64(32 << (i % 6)))
			if err != nil {
				t.Fatal(err)
			}
			first = append(first, p)
		}
		th.Close()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		// The session that crashes frees one block and allocates a few:
		// only their slabs are named past the rings' checkpoints.
		h, _, err = Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		th = h.NewThread()
		named := map[pmem.PAddr]bool{}
		if err := th.Free(first[3]); err != nil {
			t.Fatal(err)
		}
		named[first[3]&^(slab.Size-1)] = true
		for i := 0; i < 10; i++ {
			p, err := th.Malloc(128)
			if err != nil {
				t.Fatal(err)
			}
			named[p&^(slab.Size-1)] = true
		}
		th.Ctx().Merge()
		if lose {
			dev.Crash()
		}

		h, _, err = Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := h.Recovery()
		built, slabs := builtSlabs(h)
		if rep.SlabsOpened != slabs || rep.SlabsOpened <= len(named) {
			t.Fatalf("%d slabs opened of %d; the test needs more slabs than the %d replay names", rep.SlabsOpened, slabs, len(named))
		}
		want, checks := len(named), len(named)
		if !lose {
			want, checks = 0, 11 // the freed block and the ten allocated
		}
		if rep.BitmapsBuilt != want || len(built) != want || rep.BitsChecked != checks {
			t.Fatalf("lose=%v: %d bitmaps built (%d reported) after %d checks, want %d after %d checks (%d slabs named)",
				lose, len(built), rep.BitmapsBuilt, rep.BitsChecked, want, checks, len(named))
		}
		for base := range built {
			if !named[base] {
				t.Errorf("slab %#x, named by no live entry, is built", base)
			}
		}
		if want := int64(20 * rep.SlabsOpened); rep.SlabWorkNS != want {
			t.Errorf("slab phase worked %d ns, want 20 ns for each of %d headers", rep.SlabWorkNS, rep.SlabsOpened)
		}
		arenas := len(h.arenas)
		if want := int64(20 * ((rep.SlabsOpened + arenas - 1) / arenas)); rep.SlabNS != want {
			t.Errorf("slab phase spans %d ns, want 20 ns for each header of the largest of %d partitions", rep.SlabNS, arenas)
		}
	}
}

// openTwice opens two clones of dev: built has every bitmap built through
// Objects (uncharged), lazy is left as Open left it.
func openTwice(t *testing.T, dev *pmem.Device) (built, lazy *Heap) {
	t.Helper()
	var err error
	if built, _, err = Open(dev.Clone(), Options{}); err != nil {
		t.Fatal(err)
	}
	built.Objects(func(Object) bool { return true })
	if lazy, _, err = Open(dev.Clone(), Options{}); err != nil {
		t.Fatal(err)
	}
	return built, lazy
}

// TestFirstTouchChargesOnce: after a clean reopen no bitmap is built. A
// refill from an unbuilt slab, a free into one and a publish that
// supersedes a block of one charge the touching thread blocks/8 on top of
// what the same op costs on a slab already built; the next touch of each
// slab costs exactly what it costs there.
func TestFirstTouchChargesOnce(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 1 // every free is local: it reaches the bitmap at once
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	var small, big []pmem.PAddr
	for i := 0; i < 3; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		small = append(small, p)
		if p, err = th.Malloc(256); err != nil {
			t.Fatal(err)
		}
		big = append(big, p)
	}
	slot := h.RootSlot(0)
	rooted, err := alloc.MallocTo(th, slot, 1024)
	if err != nil {
		t.Fatal(err)
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	built, lazy := openTwice(t, dev)
	if n := lazy.Recovery().BitmapsBuilt; n != 0 {
		t.Fatalf("a clean open built %d bitmaps", n)
	}
	slabOf := func(h *Heap, p pmem.PAddr) *slab.Slab { return h.slabs.Lookup(p &^ (slab.Size - 1)) }
	// An op returns the block a malloc handed out, Null for a free.
	type op func(th alloc.Thread) (pmem.PAddr, error)
	malloc := func(th alloc.Thread) (pmem.PAddr, error) { return th.Malloc(64) }
	free := func(p pmem.PAddr) op {
		return func(th alloc.Thread) (pmem.PAddr, error) { return pmem.Null, th.Free(p) }
	}
	freeFrom := func(th alloc.Thread) (pmem.PAddr, error) { return pmem.Null, alloc.FreeFrom(th, slot) }
	ops := []struct {
		name  string
		do    op
		touch *slab.Slab // the lazy heap's slab this op touches first, if any
	}{
		{"refill", malloc, slabOf(lazy, small[0])},
		{"tcache pop", malloc, nil},
		{"free", free(big[0]), slabOf(lazy, big[0])},
		{"second free", free(big[1]), nil},
		{"free into the refilled slab", free(small[1]), nil},
		{"publish superseding a block", freeFrom, slabOf(lazy, rooted)},
	}
	bt, lt := built.NewThread(), lazy.NewThread()
	for _, o := range ops {
		search := func(th alloc.Thread) (pmem.PAddr, int64) {
			ctx := th.(*Thread).Ctx()
			before := ctx.Local().CatNS[pmem.CatSearch]
			p, err := o.do(th)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			return p, ctx.Local().CatNS[pmem.CatSearch] - before
		}
		if o.touch != nil && o.touch.Built() {
			t.Fatalf("%s: slab %#x built before its first touch", o.name, o.touch.Base)
		}
		pb, nsBuilt := search(bt)
		pl, nsLazy := search(lt)
		if pb != pl {
			t.Fatalf("%s: address %#x on the lazy heap, %#x on the built one", o.name, pl, pb)
		}
		var want int64
		if o.touch != nil {
			want = int64(o.touch.Blocks) / 8
			if !o.touch.Built() {
				t.Fatalf("%s: slab %#x still unbuilt", o.name, o.touch.Base)
			}
		}
		if got := nsLazy - nsBuilt; got != want {
			t.Errorf("%s: the lazy heap charged %d ns more search, want %d", o.name, got, want)
		}
	}
}

// TestFirstTouchRace: two threads of the slab's owner arena make the first
// touch of one unbuilt slab at once, each freeing a block of it into its
// tcache (NVAlloc-IC; each free takes the owner's resource, the slab lock),
// while a reader probes it. The bitmap is built once and both frees land.
// Run it under -race.
func TestFirstTouchRace(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
	opts := DefaultOptions(IC)
	opts.Arenas = 2
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	var blocks []pmem.PAddr
	for i := 0; i < 8; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, p)
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h, _, err = Open(dev, Options{}); err != nil {
		t.Fatal(err)
	}
	s := h.slabs.Lookup(blocks[0] &^ (slab.Size - 1))
	if s.Built() {
		t.Fatal("slab built by a clean open")
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; {
		th := h.NewThread().(*Thread)
		if th.arena.index != s.Owner {
			continue
		}
		wg.Add(1)
		go func(p pmem.PAddr) {
			defer wg.Done()
			if err := th.Free(p); err != nil {
				t.Error(err)
			}
		}(blocks[i])
		i++
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !h.BlockAllocated(blocks[2]) {
			t.Error("a live block reads free")
		}
	}()
	wg.Wait()
	h.lockSlabState(s)
	defer h.unlockSlabState(s)
	if !s.Built() || s.Allocated != len(blocks)-2 || s.Reserved != 2 {
		t.Fatalf("after two concurrent first frees: built %v, %d allocated, %d reserved; want %d and 2",
			s.Built(), s.Allocated, s.Reserved, len(blocks)-2)
	}
}

// TestLazyBuildMatchesEager: the same crashed image, opened twice. On one
// copy Objects builds every bitmap before anything runs; the other builds
// them as the ops touch them. The same 10 000 mixed mallocs and frees from
// two threads return the same addresses on both, and both end with the
// same objects. NVAlloc-LOG replays into some slabs at Open; NVAlloc-IC
// builds none there.
func TestLazyBuildMatchesEager(t *testing.T) {
	sizes := []uint64{32, 64, 128, 256, 512, 1024, 2048, 4096}
	for _, v := range []Variant{LOG, IC} {
		t.Run(v.String(), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
			h, err := Create(dev, DefaultOptions(v))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(27))
			var live []pmem.PAddr
			session := func(th alloc.Thread, ops int) {
				for i := 0; i < ops; i++ {
					if len(live) > 0 && rng.Intn(10) < 4 {
						k := rng.Intn(len(live))
						if err := th.Free(live[k]); err != nil {
							t.Fatal(err)
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						continue
					}
					p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				}
			}
			// A session that closes cleanly, then a short one that crashes:
			// its entries name only some of the slabs.
			th := h.NewThread()
			session(th, 6000)
			th.Close()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if h, _, err = Open(dev, Options{}); err != nil {
				t.Fatal(err)
			}
			th = h.NewThread()
			session(th, 300)
			th.Ctx().Merge()
			dev.Crash()

			eager, lazy := openTwice(t, dev)
			if _, n := builtSlabs(lazy); lazy.Recovery().BitmapsBuilt >= n {
				t.Fatalf("Open built %d of %d bitmaps: nothing is left to build lazily", lazy.Recovery().BitmapsBuilt, n)
			}
			run := func(h *Heap) []pmem.PAddr {
				rng := rand.New(rand.NewSource(28))
				ths := []alloc.Thread{h.NewThread(), h.NewThread()}
				live := append([]pmem.PAddr(nil), live...)
				var got []pmem.PAddr
				for i := 0; i < 10000; i++ {
					th := ths[i%2]
					if len(live) > 0 && rng.Intn(10) < 5 {
						k := rng.Intn(len(live))
						if err := th.Free(live[k]); err != nil {
							t.Fatalf("op %d: free %#x: %v", i, live[k], err)
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						continue
					}
					p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					got = append(got, p)
					live = append(live, p)
				}
				for _, th := range ths {
					th.Close()
				}
				return got
			}
			a, b := run(eager), run(lazy)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("malloc %d: %#x with every bitmap built at open, %#x built on first touch", i, a[i], b[i])
				}
			}
			objects := func(h *Heap) (out []Object) {
				h.Objects(func(o Object) bool { out = append(out, o); return true })
				return out
			}
			if oa, ob := objects(eager), objects(lazy); !slices.Equal(oa, ob) {
				t.Fatalf("%d objects on the eagerly built copy, %d on the lazy one, or different ones", len(oa), len(ob))
			}
		})
	}
}

// TestRecoveryUnlistsFullSlabs: Open lists every slab on its freelist
// unread; a slab recovery itself builds and finds full leaves the list
// there, as an eager load would have left it off. A session that closes
// cleanly fills one 2 KiB slab and starts another, every block reachable
// from a root; the session that crashes frees a block of the full slab,
// publishes an extent — which writes the freed bit back ahead of the
// ring's checkpoint — and takes the block back, whose bit the crash then
// loses. So NVAlloc-LOG's replay finds the slab's persisted bits unlike
// what its ring wants and builds it, NVAlloc-GC's sweep touches every
// slab, and neither frees anything.
func TestRecoveryUnlistsFullSlabs(t *testing.T) {
	for _, v := range []Variant{LOG, GC} {
		t.Run(v.String(), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
			opts := DefaultOptions(v)
			opts.Arenas = 1 // the free and the malloc after it meet in one tcache
			h, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			th := h.NewThread()
			per := slab.BlocksPerSlab(sizeclass.Class(2048), h.lay.Bitmap)
			var chain []pmem.PAddr
			prev := pmem.Null
			for i := 0; i < per+4; i++ {
				p, err := th.Malloc(2048)
				if err != nil {
					t.Fatal(err)
				}
				th.Ctx().PersistU64(pmem.CatOther, p, uint64(prev))
				chain = append(chain, p)
				prev = p
			}
			th.Ctx().PersistU64(pmem.CatOther, h.RootSlot(0), uint64(prev))
			th.Close()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if h, _, err = Open(dev, Options{}); err != nil {
				t.Fatal(err)
			}
			th = h.NewThread()
			if err := th.Free(chain[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := alloc.MallocTo(th, h.RootSlot(1), 40<<10); err != nil {
				t.Fatal(err)
			}
			if p, err := th.Malloc(2048); err != nil || p != chain[0] {
				t.Fatalf("malloc after the free: %#x, %v; want %#x back", p, err, chain[0])
			}
			th.Ctx().Merge()
			dev.Crash()

			if h, _, err = Open(dev, Options{}); err != nil {
				t.Fatal(err)
			}
			full := 0
			h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
				listed := h.arenas[s.Owner].onFreelist(s)
				switch {
				case !s.Built():
					if !listed {
						t.Errorf("unbuilt slab %#x is off its freelist", s.Base)
					}
				case s.FreeCount() == 0 && listed:
					t.Errorf("full slab %#x is on its freelist after recovery", s.Base)
				case s.FreeCount() == 0:
					full++
				case !listed:
					t.Errorf("slab %#x with %d free blocks is off its freelist", s.Base, s.FreeCount())
				}
				return true
			})
			if full != 1 {
				t.Fatalf("recovery built %d full slabs, want the one the crashed session touched", full)
			}
		})
	}
}
