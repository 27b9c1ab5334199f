package crashmc

import (
	"bytes"
	"testing"
)

// journalBytes flattens a recording's journal for byte-exact comparison.
func journalBytes(rec *Recording) []byte {
	var b bytes.Buffer
	for i := range rec.Journal {
		fd := &rec.Journal[i]
		b.Write(fd.Data[:])
		for _, v := range []uint64{fd.Line, uint64(fd.Cat), uint64(fd.Thread), uint64(int64(fd.Step))} {
			b.WriteByte(byte(v))
			b.WriteByte(byte(v >> 8))
			b.WriteByte(byte(v >> 16))
			b.WriteByte(byte(v >> 24))
		}
	}
	return b.Bytes()
}

// TestConcRecordDeterministic: the same (trace, schedule) must reproduce
// the same journal byte-for-byte — the property that makes a (seed,
// schedule key, boundary) triple a complete reproduction recipe.
func TestConcRecordDeterministic(t *testing.T) {
	tg := targetByName(t, "NVAlloc-GC")
	for _, tr := range racedTraces(7) {
		a, err := ConcRecord(tg, tr, Schedule{}, RecordOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		b, err := ConcRecord(tg, tr, Schedule{}, RecordOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		if a.Steps != b.Steps {
			t.Errorf("%s: step counts diverge: %d vs %d", tr.Name, a.Steps, b.Steps)
		}
		if !bytes.Equal(journalBytes(a.Recording), journalBytes(b.Recording)) {
			t.Errorf("%s: journals diverge across identical runs", tr.Name)
		}
	}
}

// TestPreemptScheduleDeterministic: a preemptive schedule replays
// identically too, and actually perturbs the interleaving relative to
// the round-robin baseline.
func TestPreemptScheduleDeterministic(t *testing.T) {
	tg := targetByName(t, "NVAlloc-GC")
	tr := ConcShardGC(7)
	base, err := ConcRecord(tg, tr, Schedule{}, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Split thread 0's first op with a switchable yield, running thread 1
	// through its first two ops inside the split.
	oi := -1
	for i, site := range base.Meta[0] {
		if len(site.SwitchSteps) > 0 {
			oi = i
			break
		}
	}
	if oi < 0 {
		t.Fatal("no op of t0 has a switchable yield to split at")
	}
	sched := Schedule{Preempt: &Preempt{At: base.Meta[0][oi].SwitchSteps[0], To: 1, UntilOp: 1}}
	a, err := ConcRecord(tg, tr, sched, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConcRecord(tg, tr, sched, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journalBytes(a.Recording), journalBytes(b.Recording)) {
		t.Error("preemptive schedule is not deterministic")
	}
	if bytes.Equal(journalBytes(a.Recording), journalBytes(base.Recording)) {
		t.Error("preemptive schedule produced the baseline interleaving — preempt never fired")
	}
	// The preempt must have reordered completions: thread 1's ops 0..1
	// complete before thread 0's split op in the variant.
	if !(a.Meta[1][1].RecIdx < a.Meta[0][oi].RecIdx) {
		t.Errorf("preempt did not reorder completions: t1#1 at %d, t0#%d at %d",
			a.Meta[1][1].RecIdx, oi, a.Meta[0][oi].RecIdx)
	}
}

// TestThreadProvenance: journaled deltas inside the scheduled phase
// carry the flushing thread's ID and a schedule step.
func TestThreadProvenance(t *testing.T) {
	tg := targetByName(t, "NVAlloc-LOG")
	rec, err := ConcRecord(tg, ConcExtentRefill(3), Schedule{}, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byThread := map[int32]int{}
	for i := range rec.Journal {
		fd := &rec.Journal[i]
		byThread[fd.Thread]++
		if fd.Thread > 0 && fd.Step < 0 {
			t.Fatalf("delta %d: scheduled thread %d with no step stamp", i, fd.Thread)
		}
	}
	if byThread[1] == 0 || byThread[2] == 0 {
		t.Fatalf("expected flushes from both scheduled threads, got %v", byThread)
	}
}
