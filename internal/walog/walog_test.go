package walog

import (
	"errors"
	"testing"

	"nvalloc/internal/interleave"
	"nvalloc/internal/pmem"
)

func mustNew(t *testing.T, dev *pmem.Device, base pmem.PAddr, n, stripes int) *Log {
	t.Helper()
	l, err := New(dev.Mem(), base, n, stripes)
	if err != nil {
		t.Fatalf("walog.New: %v", err)
	}
	return l
}

func mustReplay(t *testing.T, l *Log, c *pmem.Ctx, fn func(Entry)) int {
	t.Helper()
	ents, err := l.Replay(c)
	if err != nil {
		t.Fatalf("walog.Replay: %v", err)
	}
	for _, e := range ents {
		fn(e)
	}
	return len(ents)
}

func newLog(t *testing.T, n, stripes int) (*pmem.Device, *Log) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 1 << 20, Strict: true})
	return dev, mustNew(t, dev, 4096, n, stripes)
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dev, l := newLog(t, 64, 6)
	c := dev.NewCtx()
	want := []Entry{
		{Addr: 0x1000, Aux: 1, Aux2: 64, Op: OpAllocBit},
		{Addr: 0x2000, Aux: 2, Aux2: 0, Op: OpFreeBit},
		{Addr: 0x3000, Aux: 3, Aux2: 128, Op: OpMorph},
		// Every field at full width: the three 48-bit addresses straddle
		// the slot's 8-byte words.
		{Addr: 1<<48 - 8, Aux: 1<<48 - 16, Old: 1<<48 - 24, Aux2: 0xFFFF, Op: OpPublish},
		{Addr: 0xA5A5A5A5A5A5, Aux: 0x5A5A5A5A5A5A, Old: 0x123456789ABC, Aux2: 0x0102, Op: OpPublish},
	}
	for _, e := range want {
		l.Append(c, e)
	}
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 64, 6)
	var got []Entry
	n := mustReplay(t, l2, dev.NewCtx(), func(e Entry) { got = append(got, e) })
	if n != len(want) {
		t.Fatalf("replayed %d, want %d", n, len(want))
	}
	for i, e := range got {
		w := want[i]
		if e.Addr != w.Addr || e.Aux != w.Aux || e.Old != w.Old || e.Aux2 != w.Aux2 || e.Op != w.Op {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, w)
		}
		if i > 0 && got[i].Seq <= got[i-1].Seq {
			t.Fatal("replay not in sequence order")
		}
	}
}

// TestAppendRefusesWideFields: an address that does not fit the entry's
// 48-bit fields is a layout bug, not something to truncate silently.
func TestAppendRefusesWideFields(t *testing.T) {
	dev, l := newLog(t, 64, 1)
	c := dev.NewCtx()
	for _, e := range []Entry{{Addr: 1 << 48}, {Aux: 1 << 48}, {Old: 1 << 63}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%+v) did not panic", e)
				}
			}()
			l.Append(c, e)
		}()
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dev, l := newLog(t, 64, 6)
	c := dev.NewCtx()
	for i := 0; i < 10; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i), Op: OpAllocBit})
	}
	l.Checkpoint(c)
	l.Append(c, Entry{Addr: 0xAA, Op: OpFreeBit})
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 64, 6)
	var got []Entry
	mustReplay(t, l2, dev.NewCtx(), func(e Entry) { got = append(got, e) })
	if len(got) != 1 || got[0].Addr != 0xAA {
		t.Fatalf("checkpoint not honored: %+v", got)
	}
}

func TestRingWrapAdvancesCheckpoint(t *testing.T) {
	dev, l := newLog(t, 16, 4)
	c := dev.NewCtx()
	for i := 0; i < 100; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i), Op: OpAllocBit})
	}
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 16, 4)
	var got []Entry
	mustReplay(t, l2, dev.NewCtx(), func(e Entry) { got = append(got, e) })
	if len(got) == 0 || len(got) > 16 {
		t.Fatalf("replay window after wrap should be within one ring: %d", len(got))
	}
	// The newest entry must always be replayable.
	last := got[len(got)-1]
	if last.Addr != 99 {
		t.Fatalf("latest entry lost: %+v", last)
	}
}

func TestAppendAfterReplayContinuesSeq(t *testing.T) {
	dev, l := newLog(t, 32, 6)
	c := dev.NewCtx()
	for i := 0; i < 5; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i)})
	}
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 32, 6)
	mustReplay(t, l2, dev.NewCtx(), func(Entry) {})
	s0 := l2.Seq()
	l2.Append(c, Entry{Addr: 0xBB})
	if l2.Seq() != s0+1 || s0 < 6 {
		t.Fatalf("sequence did not continue: s0=%d", s0)
	}
}

func TestInterleavedEntriesAvoidReflush(t *testing.T) {
	// With stripes >= the reflush window, consecutive appends must not
	// reflush; with 1 stripe they must (two 32 B entries share a line).
	run := func(stripes int) uint64 {
		dev := pmem.New(pmem.Config{Size: 1 << 20})
		l := mustNew(t, dev, 4096, 64, stripes)
		c := dev.NewCtx()
		for i := 0; i < 32; i++ {
			l.Append(c, Entry{Addr: pmem.PAddr(i), Op: OpAllocBit})
		}
		return c.Local().Reflushes
	}
	if r := run(6); r != 0 {
		t.Fatalf("interleaved WAL reflushed %d times", r)
	}
	if r := run(1); r == 0 {
		t.Fatal("sequential WAL should reflush")
	}
}

func TestRegionSize(t *testing.T) {
	if RegionSize(64, 6) <= 64*EntrySize {
		t.Fatal("region must include header and padding")
	}
	if RegionSize(64, 1) != 64+64*EntrySize {
		t.Fatalf("sequential region size wrong: %d", RegionSize(64, 1))
	}
}

func TestReplayEmptyLog(t *testing.T) {
	dev, _ := newLog(t, 64, 6)
	l2 := mustNew(t, dev, 4096, 64, 6)
	if n := mustReplay(t, l2, dev.NewCtx(), func(Entry) {}); n != 0 {
		t.Fatalf("fresh log replayed %d entries", n)
	}
}

func TestWALFlushCategory(t *testing.T) {
	dev, l := newLog(t, 64, 6)
	c := dev.NewCtx()
	l.Append(c, Entry{Addr: 1})
	if c.Local().CatFlush[pmem.CatWAL] == 0 {
		t.Fatal("WAL append must charge CatWAL")
	}
}

func TestCursorResumesAfterReplayMidRing(t *testing.T) {
	dev, l := newLog(t, 8, 2)
	c := dev.NewCtx()
	for i := 0; i < 11; i++ { // wraps the 8-slot ring
		l.Append(c, Entry{Addr: pmem.PAddr(i)})
	}
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 8, 2)
	mustReplay(t, l2, dev.NewCtx(), func(Entry) {})
	// Appending after recovery must not clobber the newest entries: the
	// next append lands after the highest live sequence.
	l2.Append(c, Entry{Addr: 0xAB})
	dev.Crash()
	l3 := mustNew(t, dev, 4096, 8, 2)
	var got []Entry
	mustReplay(t, l3, dev.NewCtx(), func(e Entry) { got = append(got, e) })
	found := false
	for _, e := range got {
		if e.Addr == 0xAB {
			found = true
		}
	}
	if !found {
		t.Fatal("post-recovery append lost")
	}
}

func TestCursorResumesAfterCleanReopen(t *testing.T) {
	// A clean shutdown (Checkpoint) followed by New must resume appending
	// at slot ckpt%n, keeping the seq<->slot invariant: otherwise replay
	// after a later crash rejects the misplaced entries.
	dev, l := newLog(t, 8, 2)
	c := dev.NewCtx()
	for i := 0; i < 5; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i)})
	}
	l.Checkpoint(c)
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 8, 2)
	l2.Append(c, Entry{Addr: 0xCD})
	dev.Crash()
	l3 := mustNew(t, dev, 4096, 8, 2)
	var got []Entry
	mustReplay(t, l3, dev.NewCtx(), func(e Entry) { got = append(got, e) })
	if len(got) != 1 || got[0].Addr != 0xCD {
		t.Fatalf("post-reopen append not replayed: %+v", got)
	}
}

func TestReplayDetectsFlippedEntry(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 6; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(0x1000 + i), Op: OpAllocBit})
	}
	dev.Crash()
	// Flip one bit in two different persisted entries: two bad slots can
	// never come from a single in-flight append and must be corruption.
	for _, slot := range []int{1, 3} {
		a := l.slotAddr(slot)
		dev.WriteU8(a+8, dev.ReadU8(a+8)^0x04)
	}
	l2 := mustNew(t, dev, 4096, 16, 2)
	_, err := l2.Replay(dev.NewCtx())
	if !errors.Is(err, pmem.ErrCorrupted) {
		t.Fatalf("flipped entries not detected: %v", err)
	}
}

func TestReplayDropsTornInFlightAppend(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Strict: true, Journal: true})
	l := mustNew(t, dev, 4096, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 6; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(0x1000 + i), Op: OpAllocBit})
	}
	l.Append(c, Entry{Addr: 0x9999, Op: OpFreeBit})
	// Tear the 7th append: cut power with its flush in flight, so that its
	// slot persists a partial entry.
	journal := dev.JournalSnapshot()
	cursor := pmem.NewImageCursor(dev.Size(), journal)
	cursor.Advance(len(journal) - 1)
	if !cursor.MaterializeTornInto(dev, 7) {
		t.Fatal("no flush in flight at the last boundary but one")
	}
	l2 := mustNew(t, dev, 4096, 16, 2)
	got, err := l2.Replay(dev.NewCtx())
	if err != nil {
		t.Fatalf("torn in-flight append must be tolerated: %v", err)
	}
	if len(got) < 6 || len(got) > 7 {
		t.Fatalf("replayed %d entries, want the 6 completed ones and at most the torn one: %+v", len(got), got)
	}
	for i, e := range got[:6] {
		if e.Addr != pmem.PAddr(0x1000+i) {
			t.Fatalf("completed entry %d lost: %+v", i, got)
		}
	}
}

// replayCounted replays a fresh log over the ring at 4096 and returns its
// entries, its error and the number of slots it read.
func replayCounted(t *testing.T, dev *pmem.Device, n, stripes int) ([]Entry, error, int64) {
	t.Helper()
	c := dev.NewCtx()
	got, err := mustNew(t, dev, 4096, n, stripes).Replay(c)
	return got, err, c.Local().CatNS[pmem.CatSearch] / SlotReadNS
}

// TestReplayReadsLiveWindow: the scan reads the live entries and the one
// slot after them where the log stops — never-written or stale — whatever
// the ring's capacity, wrapped or not.
func TestReplayReadsLiveWindow(t *testing.T) {
	for _, tc := range []struct{ n, appends int }{{16, 0}, {16, 5}, {1024, 5}, {16, 40}, {16, 16}} {
		dev, l := newLog(t, tc.n, 2)
		c := dev.NewCtx()
		for i := 0; i < tc.appends; i++ {
			l.Append(c, Entry{Addr: pmem.PAddr(0x1000 + i), Op: OpAllocBit})
		}
		dev.Crash()
		got, err, read := replayCounted(t, dev, tc.n, 2)
		if err != nil {
			t.Fatalf("n=%d appends=%d: %v", tc.n, tc.appends, err)
		}
		if read != int64(len(got))+1 {
			t.Errorf("n=%d appends=%d: read %d slots for %d live entries, want live + 1", tc.n, tc.appends, read, len(got))
		}
		if tc.appends > 0 && got[len(got)-1].Addr != pmem.PAddr(0x1000+tc.appends-1) {
			t.Errorf("n=%d appends=%d: newest entry lost: %+v", tc.n, tc.appends, got)
		}
	}
}

// TestReplayAfterCheckpointReadsOneSlot: a ring closed by Checkpoint has an
// empty window; the scan reads the one slot the next append would take.
func TestReplayAfterCheckpointReadsOneSlot(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 21; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i), Op: OpAllocBit})
	}
	l.Checkpoint(c)
	dev.Crash()
	got, err, read := replayCounted(t, dev, 16, 2)
	if err != nil || len(got) != 0 || read != 1 {
		t.Fatalf("closed ring: %d entries, err %v, %d slots read; want none, nil, 1", len(got), err, read)
	}
}

// TestReplayDetectsFlippedLiveEntry: a bad slot inside the live window is
// corruption, named at that slot — the entry after it is of the current
// lap, which no torn append leaves.
func TestReplayDetectsFlippedLiveEntry(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 20; i++ { // wraps: the window is seqs 10..20
		l.Append(c, Entry{Addr: pmem.PAddr(0x1000 + i), Op: OpAllocBit})
	}
	dev.Crash()
	for _, seq := range []uint64{10, 15, 19} { // oldest, middle, newest but one
		img := dev.Clone()
		a := l.slotAddr(int((seq - 1) % 16))
		img.WriteU8(a+9, img.ReadU8(a+9)^0x20)
		_, err, _ := replayCounted(t, img, 16, 2)
		var ce *pmem.CorruptError
		if !errors.As(err, &ce) || ce.Addr != a {
			t.Fatalf("flipped live entry %d at %#x: %v, want a CorruptError there", seq, a, err)
		}
	}
}

// TestReplayDetectsAdjacentInvalidSlots: a torn stop slot is tolerated
// only alone; a second invalid slot right after it is corruption.
func TestReplayDetectsAdjacentInvalidSlots(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 20; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i), Op: OpAllocBit})
	}
	dev.Crash()
	for _, slot := range []int{4, 5} { // the stop slot (seq 21's) and the one after
		a := l.slotAddr(slot)
		dev.WriteU64(a+8, ^dev.ReadU64(a+8))
	}
	if _, err, _ := replayCounted(t, dev, 16, 2); !errors.Is(err, pmem.ErrCorrupted) {
		t.Fatalf("two adjacent invalid slots: %v, want ErrCorrupted", err)
	}
}

// TestReplayToleratesTornStopSlotBeforeStale: a torn append over a stale
// slot, followed by another stale slot, is the in-flight append — dropped,
// with the scan reading two slots past the window.
func TestReplayToleratesTornStopSlotBeforeStale(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 20; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(0x1000 + i), Op: OpAllocBit})
	}
	dev.Crash()
	a := l.slotAddr(4) // seq 21 would land here over seq 5; slot 5 holds seq 6
	dev.WriteU64(a, 21)
	got, err, read := replayCounted(t, dev, 16, 2)
	if err != nil {
		t.Fatalf("torn stop slot before a stale one: %v", err)
	}
	if len(got) != 11 || got[0].Seq != 10 || got[10].Addr != 0x1000+19 || read != int64(len(got))+2 {
		t.Fatalf("replayed %d entries (%+v) reading %d slots, want seqs 10..20 and live + 2", len(got), got, read)
	}
}

// TestReplayRefusesEntryAheadOfWindow: a valid entry at the stop slot
// whose sequence is a lap ahead of the log cannot be stale or torn.
func TestReplayRefusesEntryAheadOfWindow(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 20; i++ {
		l.Append(c, Entry{Addr: pmem.PAddr(i), Op: OpAllocBit})
	}
	dev.Crash()
	dev.WriteU64(4096, pmem.SealU64(0)) // the checkpoint goes back: slot 0 holds seq 17, not 1
	if _, err, _ := replayCounted(t, dev, 16, 2); !errors.Is(err, pmem.ErrCorrupted) {
		t.Fatalf("entry a lap ahead of the window: %v, want ErrCorrupted", err)
	}
}

func TestNewDetectsCorruptCheckpoint(t *testing.T) {
	dev, l := newLog(t, 16, 2)
	c := dev.NewCtx()
	for i := 0; i < 40; i++ { // wraps enough to persist a checkpoint
		l.Append(c, Entry{Addr: pmem.PAddr(i)})
	}
	dev.Crash()
	dev.WriteU64(4096, dev.ReadU64(4096)^(1<<5))
	if _, err := New(dev.Mem(), 4096, 16, 2); !errors.Is(err, pmem.ErrCorrupted) {
		t.Fatalf("corrupt checkpoint not detected: %v", err)
	}
}

// appendGroup is the commit shape core uses: every entry written and
// flushed by Append, one trailing fence owned by the caller.
func appendGroup(l *Log, c *pmem.Ctx, es []Entry) uint64 {
	var last uint64
	for _, e := range es {
		last = l.Append(c, e)
	}
	c.Fence()
	return last
}

func TestAppendGroupRoundtripSingleFence(t *testing.T) {
	dev, l := newLog(t, 64, 6)
	c := dev.NewCtx()
	es := []Entry{
		{Addr: 0x1000, Aux: 1, Aux2: 64, Op: OpAllocBit},
		{Addr: 0x2000, Aux: 2, Op: OpFreeBit},
		{Addr: 0x3000, Aux: 3, Op: OpMorph},
		{Addr: 0x4000, Aux: 4, Op: OpRetire},
		{Addr: 0x5000, Aux: 5, Op: OpAllocBit},
	}
	f0 := c.Local().Fences
	last := appendGroup(l, c, es)
	if fences := c.Local().Fences - f0; fences != 1 {
		t.Fatalf("group of %d entries issued %d fences, want 1 (Append itself never fences)", len(es), fences)
	}
	if last != uint64(len(es)) {
		t.Fatalf("last seq %d, want %d", last, len(es))
	}
	dev.Crash()
	l2 := mustNew(t, dev, 4096, 64, 6)
	var got []Entry
	mustReplay(t, l2, dev.NewCtx(), func(e Entry) { got = append(got, e) })
	if len(got) != len(es) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(es))
	}
	for i, e := range got {
		if e.Addr != es[i].Addr || e.Aux != es[i].Aux || e.Op != es[i].Op {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, es[i])
		}
	}
}

func TestAppendGroupCrashMidGroupKeepsPrefix(t *testing.T) {
	// Entries of a group are flushed individually (the fence is what gets
	// amortized), so cutting power mid-group must leave a replayable
	// prefix — never a corrupt log.
	for cut := int64(1); cut <= 6; cut++ {
		dev := pmem.New(pmem.Config{Size: 1 << 20, Strict: true})
		l := mustNew(t, dev, 4096, 64, 6)
		c := dev.NewCtx()
		es := make([]Entry, 6)
		for i := range es {
			es[i] = Entry{Addr: pmem.PAddr(0x1000 + i), Op: OpAllocBit}
		}
		dev.CrashAfterFlushes(cut)
		appendGroup(l, c, es)
		dev.Crash()
		l2 := mustNew(t, dev, 4096, 64, 6)
		got, err := l2.Replay(dev.NewCtx())
		if err != nil {
			t.Fatalf("cut=%d: mid-group crash corrupted log: %v", cut, err)
		}
		n := len(got)
		if n > len(es) {
			t.Fatalf("cut=%d: replayed %d entries from a %d-entry group", cut, n, len(es))
		}
		for i, e := range got {
			if e.Addr != es[i].Addr {
				t.Fatalf("cut=%d: surviving entries not a prefix: %d is %+v", cut, i, e)
			}
		}
	}
}

// TestWriteBackPrecedesCheckpointWord: the write-back hook runs inside
// every checkpoint move — ring wrap and explicit Checkpoint — before the
// checkpoint word is written, and its flushes are fenced before the
// word's; a move that retires nothing calls nothing.
func TestWriteBackPrecedesCheckpointWord(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Strict: true, Journal: true})
	l := mustNew(t, dev, 4096, 8, 1)
	c := dev.NewCtx()
	const victim = pmem.PAddr(64 << 10)
	calls := 0
	l.WriteBack = func(c *pmem.Ctx) bool {
		calls++
		if got, _ := pmem.UnsealU64(dev.ReadU64(4096)); got != uint64(l.ckpt) {
			t.Errorf("checkpoint word %d moved ahead of the write-back (ckpt %d)", got, l.ckpt)
		}
		dev.WriteU64(victim, uint64(calls))
		c.FlushU64(pmem.CatMeta, victim)
		return true
	}
	for i := 0; i < 8; i++ {
		l.Append(c, Entry{Op: OpAllocBit, Addr: 0x1000, Aux: uint64(i)})
	}
	if calls != 0 {
		t.Fatalf("write-back ran %d times before the ring wrapped", calls)
	}
	fences := c.Local().Fences
	start := dev.JournalLen()
	l.Append(c, Entry{Op: OpAllocBit, Addr: 0x1000, Aux: 8}) // wraps: checkpoint moves to 5
	if calls != 1 {
		t.Fatalf("write-back ran %d times at the wrap, want 1", calls)
	}
	if got := c.Local().Fences - fences; got != 2 {
		t.Errorf("%d fences in the move, want 2 (after the write-back, after the word)", got)
	}
	var lines []pmem.PAddr
	for _, fd := range dev.JournalSnapshot()[start:] {
		lines = append(lines, pmem.PAddr(fd.Line*pmem.LineSize))
	}
	if len(lines) != 3 || lines[0] != victim || lines[1] != 4096 {
		t.Errorf("flush order %#x, want write-back line %#x, checkpoint word 0x1000, then the entry", lines, victim)
	}
	l.Checkpoint(c)
	if calls != 2 {
		t.Errorf("write-back ran %d times after Checkpoint, want 2", calls)
	}
	l.Checkpoint(c) // nothing left to retire
	if calls != 2 {
		t.Errorf("a checkpoint that moves nothing ran the write-back (%d calls)", calls)
	}
}

// TestEntryCheckSeesEveryWord: a torn append leaves one or more of a ring
// slot's old words under the new entry's checksum. Two entries that reuse
// a ring slot for the same user slot differ in little more than the low
// bits of a block address, which the packed layout stores in the top bits
// of a word; every single-field difference must move the checksum as a
// random function would, whichever bits carry it.
func TestEntryCheckSeesEveryWord(t *testing.T) {
	base := Entry{Addr: 0x10d0, Aux: 0x411640, Old: 0x411340, Aux2: 0x0e0e, Op: OpPublish}
	w1, w2, w3 := base.pack()
	want := entryCheck(71, w1, w2, w3)
	collisions, trials := 0, 0
	for bit := 0; bit < 48; bit++ {
		for _, e := range []Entry{
			{Addr: base.Addr ^ 1<<bit, Aux: base.Aux, Old: base.Old, Aux2: base.Aux2, Op: base.Op},
			{Addr: base.Addr, Aux: base.Aux ^ 1<<bit, Old: base.Old, Aux2: base.Aux2, Op: base.Op},
			{Addr: base.Addr, Aux: base.Aux, Old: base.Old ^ 1<<bit, Aux2: base.Aux2, Op: base.Op},
		} {
			for delta := uint64(0); delta < 512; delta++ {
				e.Aux ^= delta << 6 // neighbouring blocks of one slab
				if a, b, c := e.pack(); e != base {
					if entryCheck(71, a, b, c) == want {
						collisions++
					}
					trials++
				}
				e.Aux ^= delta << 6
			}
		}
	}
	// A 24-bit check collides once in 16M; the unfolded mix collided once
	// in 256 on differences in a word's top 16 bits.
	if collisions > 1 {
		t.Fatalf("%d of %d near-miss entries share the checksum", collisions, trials)
	}
}

// TestFirstAppendPutsRingInService: OnInService fires once, on the append
// of sequence 1, and never for a ring that reopens in service.
func TestFirstAppendPutsRingInService(t *testing.T) {
	dev, l := newLog(t, 64, 6)
	c := dev.NewCtx()
	calls := 0
	l.OnInService = func() { calls++ }
	if l.InService() {
		t.Fatal("a fresh ring is in service")
	}
	for i := 0; i < 100; i++ {
		l.Append(c, Entry{Op: OpAllocBit, Addr: 4096, Aux: uint64(i)})
		if !l.InService() || calls != 1 {
			t.Fatalf("after append %d: in service %v, %d calls, want true and 1", i+1, l.InService(), calls)
		}
	}
	l.Checkpoint(c)
	again := mustNew(t, dev, 4096, 64, 6)
	again.OnInService = func() { calls++ }
	again.Append(c, Entry{Op: OpAllocBit, Addr: 4096})
	if !again.InService() || calls != 1 {
		t.Fatalf("reopened ring: in service %v, %d calls, want true and still 1", again.InService(), calls)
	}
}

// TestNewSharesItsSlotTable: after the first ring of a geometry, New
// tabulates no slot: every ring of that geometry reads one shared table of
// the interleaved slot offsets, and New allocates the Log alone.
func TestNewSharesItsSlotTable(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Strict: true})
	const n, stripes = 1024, 6
	a := mustNew(t, dev, 4096, n, stripes)
	b := mustNew(t, dev, 4096+pmem.PAddr(RegionSize(n, stripes)), n, stripes)
	if &a.slots[0] != &b.slots[0] {
		t.Fatal("two rings of one geometry hold two slot tables")
	}
	m := interleave.New(n, EntrySize*8, stripes, pmem.LineSize)
	for slot := 0; slot < n; slot++ {
		if got, want := b.slotAddr(slot), b.base+headerSize+pmem.PAddr(m.ByteOffset(slot)); got != want {
			t.Fatalf("slot %d at %#x, want %#x", slot, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := New(dev.Mem(), 4096, n, stripes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("New allocates %v objects, want 1 (the Log)", allocs)
	}
}
