package crashmc

import (
	"bytes"
	"testing"

	"nvalloc/internal/pmem"
)

// TestJournalMatchesCrashImages is the model checker's foundation: the
// image the flush journal reconstructs at boundary k must be
// byte-identical to what arming CrashAfterFlushes(k) during a second run
// of the same trace — through the same executor, on a device with no
// journal — then cutting power, leaves on the media. The trace ends in
// publishes (an insert, a replace by an extent from the other thread, a
// replace by a small block), so the crosscheck crosses a reserve → fill →
// publish group too.
func TestJournalMatchesCrashImages(t *testing.T) {
	tg := Targets()[0] // NVAlloc-LOG with smoke tuning
	tr := WorkloadTrace(1, 48)
	tr.Ops = append(tr.Ops, // WorkloadTrace keeps to slots 0-23
		Op{Kind: OpPublish, Slot: 30, Size: 200},
		Op{Kind: OpPublish, Thread: 1, Slot: 30, Size: 64 << 10},
		Op{Kind: OpPublish, Slot: 30, Size: 96})
	rec, err := Record(tg, tr, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, or := range rec.Ops[len(rec.Ops)-3:] {
		if or.Err || or.Addr == 0 {
			t.Fatalf("publish %d of the trace's tail failed", i)
		}
	}
	n := len(rec.Journal)
	if n < 100 {
		t.Fatalf("trace too small to be interesting: %d flushes", n)
	}
	pub := rec.Ops[len(rec.Ops)-2] // the cross-thread extent publish
	ks := []int{0, 1, 2, rec.CreatedAt - 1, rec.CreatedAt, rec.CreatedAt + 7,
		n / 3, n / 2, 2 * n / 3, pub.FlushStart + 1, pub.FlushEnd - 1, rec.CloseStart, n - 2, n - 1, n}
	cursor := pmem.NewImageCursor(rec.DeviceBytes, rec.Journal)
	prev := -1
	for _, k := range ks {
		if k <= prev || k > n {
			continue
		}
		prev = k
		cursor.Advance(k)
		dev := pmem.New(pmem.Config{Size: rec.DeviceBytes, Strict: true})
		dev.CrashAfterFlushes(int64(k))
		// What the run returns once its device has lost power is of no
		// interest: the media image is.
		_, _ = runOn(dev, tg, tr, RecordOptions{})
		dev.Crash()
		got := dev.Bytes(0, int(rec.DeviceBytes))
		if !bytes.Equal(got, cursor.Image()) {
			// Locate the first divergence for the failure message.
			i := 0
			for i < len(got) && got[i] == cursor.Image()[i] {
				i++
			}
			t.Fatalf("boundary %d: journal image diverges from crash image at byte %#x (line %d)",
				k, i, i/pmem.LineSize)
		}
	}
}

// TestRecordersShareTheExecutor pins the two ways the scheduled recorder's
// private copy of the op switch had drifted from Record's: a publish in a
// raced trace must really publish — the slot word holds the block the
// op reserved — and a kind the executor does not know is an error from
// both recorders, not a silent no-op. The raced trace, run as a family of
// the table's, recovers at every boundary of its schedules.
func TestRecordersShareTheExecutor(t *testing.T) {
	tg := targetByName(t, "NVAlloc-LOG")
	tr := Trace{
		Name: "raced-publish",
		Ops:  []Op{{Kind: OpMallocTo, Slot: 0, Size: 64}},
		Raced: [][]Op{
			{{Kind: OpPublish, Slot: 0, Size: 192}, {Kind: OpPublish, Slot: 2, Size: 64}},
			{{Kind: OpPublish, Slot: 1, Size: 48 << 10}, {Kind: OpMalloc, Size: 64}},
		},
	}
	cr, err := ConcRecord(tg, tr, Schedule{}, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := tg.Open(cr.Dev)
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	for _, or := range cr.Ops {
		if or.Op.Kind != OpPublish {
			continue
		}
		published++
		if or.Err || or.Addr == 0 {
			t.Errorf("publish into slot %d recorded addr %#x, err %v", or.Op.Slot, or.Addr, or.Err)
		} else if got := pmem.PAddr(cr.Dev.ReadU64(h.RootSlot(or.Op.Slot))); got != or.Addr {
			t.Errorf("slot %d holds %#x after the run, the publish reserved %#x", or.Op.Slot, got, or.Addr)
		}
	}
	if published != 3 {
		t.Fatalf("%d publishes recorded, want 3", published)
	}
	rep, err := Family{Name: tr.Name, Target: tg, Trace: tr}.Run(RunOptions{Config: Config{TornSeed: 0xDECAF}})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep.Sweep, 0, 0xDECAF)

	bogus := Op{Kind: OpPublish + 1}
	if _, err := Record(tg, Trace{Name: "bogus", Threads: 1, Ops: []Op{bogus}}, RecordOptions{}); err == nil {
		t.Error("Record ran a trace with an unknown op kind")
	}
	for _, tr := range []Trace{
		{Name: "bogus-prologue", Ops: []Op{bogus}, Raced: [][]Op{{}, {}}},
		{Name: "bogus-thread", Raced: [][]Op{{{Kind: OpMalloc, Size: 64}}, {bogus}}},
	} {
		if _, err := ConcRecord(tg, tr, Schedule{}, RecordOptions{}); err == nil {
			t.Errorf("ConcRecord ran %s, a trace with an unknown op kind", tr.Name)
		}
	}
}
