package core

import (
	"testing"

	"nvalloc/internal/pmem"
	"nvalloc/internal/walog"
)

// crashedLOGHeap builds a 16-arena NVAlloc-LOG heap with ringEntries-slot
// rings, runs a fixed single-thread session on it — publishes, anonymous
// blocks, a few extents, fewer appends than the smallest ring holds — and
// drops it without Close.
func crashedLOGHeap(t *testing.T, ringEntries int) *pmem.Device {
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
		if _, err := th.MallocTo(h.RootSlot(20+i), 40<<10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := th.MallocTo(h.RootSlot(i), uint64(64+i*40)); err != nil {
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
	dev.Crash()
	return dev
}

// TestOpenScanFollowsLiveEntries: the ring scan charges
// walog.SlotReadNS of CatSearch per slot it reads, and it reads each
// ring's live entries and the one slot where the log stops. The same
// crashed session on rings of two capacities costs the same search time,
// and the scan's share of it — what the crash adds over opening the same
// image as if it had shut down cleanly — is exactly that.
func TestOpenScanFollowsLiveEntries(t *testing.T) {
	search := func(ringEntries int, crashed bool) (int64, Recovery) {
		dev := crashedLOGHeap(t, ringEntries)
		if !crashed {
			dev.WriteU64(superBase+sbState, pmem.SealU64(stateShutdown))
		}
		before := dev.Stats().CatNS[pmem.CatSearch]
		h, _, err := Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dev.Stats().CatNS[pmem.CatSearch] - before, h.Recovery()
	}
	small, _ := search(MinWALEntries, true)
	large, rep := search(1024, true)
	if rep.EntriesReplayed == 0 {
		t.Fatal("no live WAL entry at the crash: the test replays nothing")
	}
	if large != small {
		t.Fatalf("Open's search time is %d ns on %d-slot rings and %d ns on 1024-slot rings: the scan grows with capacity",
			small, MinWALEntries, large)
	}
	clean, _ := search(1024, false)
	const arenas = 16
	if got, want := large-clean, int64(walog.SlotReadNS*(rep.EntriesReplayed+arenas)); got != want {
		t.Fatalf("the ring scans charge %d ns of search, want %d: %d live entries and one stop slot in each of %d rings",
			got, want, rep.EntriesReplayed, arenas)
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
			p, err = w1.MallocTo(h.RootSlot(0), 64)
		} else {
			p, err = pmem.Null, w1.FreeFrom(h.RootSlot(0))
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
// chunks of records and tombstones in one shard, none of them empty — is
// opened under the default threshold (far above it) and under a one-chunk
// threshold.
func TestOpenCompactsOnlyOverThreshold(t *testing.T) {
	live := map[pmem.PAddr]bool{}
	crashed := func() *pmem.Device {
		dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true, Journal: true})
		opts := DefaultOptions(LOG)
		opts.Arenas = 2
		opts.BookShards = 1
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
		for _, fd := range dev.JournalSnapshot()[start-dev.JournalBase():] {
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
	if flushes != 0 || under.Recovery().ShardsCompacted != 0 {
		t.Errorf("under the threshold Open flushed %d bookkeeping-log lines and compacted %d shards, want none",
			flushes, under.Recovery().ShardsCompacted)
	}
	if _, slow := under.Blog().GCCounts(); slow != 0 {
		t.Errorf("under the threshold Open ran %d slow GCs", slow)
	}

	over, flushes := reopen(1)
	if flushes == 0 || over.Recovery().ShardsCompacted != 1 {
		t.Errorf("over the threshold Open flushed %d bookkeeping-log lines and compacted %d shards, want the one shard rewritten",
			flushes, over.Recovery().ShardsCompacted)
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
	h, ns, err := Open(crashedLOGHeap(t, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := h.Recovery()
	if got.TotalNS() != ns {
		t.Errorf("phases sum to %d ns, Open returned %d", got.TotalNS(), ns)
	}
	want := Recovery{
		Crashed:   true,
		BookLogNS: 0, // one shard per arena, none over its threshold, no empty chunk
		ExtentNS:  330,
		SlabNS:    589,
		WALNS:     (24+16)*5 + 2945, // each live entry and one stop slot per ring read; 8 lines (one per slab: sequential bitmaps), one checkpoint word, two fences
		StateNS:   670,

		SlabsLoaded:      8,
		EntriesReplayed:  24,
		LinesWrittenBack: 8,
	}
	if got != want {
		type raw Recovery // without the String method
		t.Errorf("recovery report\n got %+v\nwant %+v", raw(got), raw(want))
	}
}
