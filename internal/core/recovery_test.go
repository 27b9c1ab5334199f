package core

import (
	"errors"
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

// TestOpenScansEachRingOnce: the ring scan charges 5 ns of CatSearch per
// slot, so two heaps that differ only in ring capacity differ, in Open's
// search time, by arenas × (capacity difference) × 5 per scan Open makes
// of each ring. It must make exactly one.
func TestOpenScansEachRingOnce(t *testing.T) {
	search := func(ringEntries int) (int64, Recovery) {
		dev := crashedLOGHeap(t, ringEntries)
		before := dev.Stats().CatNS[pmem.CatSearch]
		h, _, err := Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dev.Stats().CatNS[pmem.CatSearch] - before, h.Recovery()
	}
	small, _ := search(MinWALEntries)
	large, rep := search(1024)
	if rep.EntriesReplayed == 0 {
		t.Fatal("no live WAL entry at the crash: the test replays nothing")
	}
	const arenas = 16
	if got, want := large-small, int64(arenas*(1024-MinWALEntries)*5); got != want {
		t.Fatalf("Open's search time grows by %d ns from %d-slot to 1024-slot rings, want %d: %.2f scans per ring",
			got, MinWALEntries, want, float64(got)/float64(want))
	}
}

// TestOpenValidatesRetiredSlotsOfIdleRings: the one scan is not a shorter
// scan. Arena 1 worked in a session that closed cleanly, so every entry of
// its ring is below the checkpoint, and it sits idle through the session
// that crashes; a bit flipped in one of those retired slots must still
// fail the open with the ring's typed corruption error.
func TestOpenValidatesRetiredSlotsOfIdleRings(t *testing.T) {
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
	dev.Crash()

	opts := h.Options()
	region := pmem.PAddr(walog.RegionSize(opts.WALEntries, opts.Stripes))
	ring1 := pmem.Range{Start: h.walBase() + region, End: h.walBase() + 2*region}
	flipped := pmem.Null
	for a := ring1.Start + pmem.LineSize; a < ring1.End; a += 8 { // past the checkpoint line
		if dev.ReadU64(a) != 0 {
			dev.WriteU8(a, dev.ReadU8(a)^0x10)
			flipped = a
			break
		}
	}
	if flipped == pmem.Null {
		t.Fatal("arena 1's ring holds no entry")
	}
	_, _, err = Open(dev, Options{})
	var ce *pmem.CorruptError
	if !errors.Is(err, pmem.ErrCorrupted) || !errors.As(err, &ce) {
		t.Fatalf("Open after flipping a retired slot of an idle ring: %v, want a CorruptError", err)
	}
	if ce.Region != "wal" || ce.Addr < ring1.Start || ce.Addr >= ring1.End {
		t.Fatalf("CorruptError names %s %#x, want wal inside arena 1's ring [%#x,%#x)", ce.Region, ce.Addr, ring1.Start, ring1.End)
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
		WALNS:     16*1024*5 + 2945, // one scan of every slot; 8 lines (one per slab: sequential bitmaps), one checkpoint word, two fences
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
