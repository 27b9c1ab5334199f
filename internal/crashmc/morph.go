package crashmc

import (
	"nvalloc/internal/core"
)

// The morph family puts every step of a slab morph (§5.2's flag protocol)
// at a crash boundary: the steps all land inside the flush window of the
// one allocation that triggers the transform, so the family enumerates
// that window and a little margin, not the thousands of boundaries it
// takes to set the morph up. The published old-class survivors must
// recover at every cut; under the cache-image cut the image has the stores
// of the step under way — the new header fields of step 3 before their
// line is flushed, under a flag that still says 2.

// morphTarget is one NVAlloc variant on a single arena, so the slabs the
// trace drains are the ones its later allocations find.
func morphTarget(v core.Variant) Target {
	return TargetOpts(v.String(), func() core.Options {
		opts := core.DefaultOptions(v)
		opts.Arenas = 1
		opts.BlogGCThreshold = SmokeGCThreshold
		return opts
	})
}

// morphTrace fills one arena's small class, frees everything but a sparse
// published survivor set so the slabs drop under the SU occupancy
// threshold, then allocates a different class until a slab morphs.
func morphTrace() Trace {
	tr := Trace{Name: "morph", Threads: 1}
	slot := 0
	var anon []int
	for i := 0; i < 3000; i++ {
		if i%64 == 0 {
			tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Slot: slot, Size: 100})
			slot++
		} else {
			anon = append(anon, len(tr.Ops))
			tr.Ops = append(tr.Ops, Op{Kind: OpMalloc, Size: 100})
		}
	}
	for _, ref := range anon {
		tr.Ops = append(tr.Ops, Op{Kind: OpFree, Ref: ref})
	}
	for i := 0; i < 2000; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMalloc, Size: 1000})
	}
	return tr
}

// morphTrigger returns the op whose window contains the first morph: the
// first whose morph-counter probe is non-zero.
func morphTrigger(rec *Recording) *OpRecord {
	for i := range rec.Ops {
		if rec.Ops[i].Probe > 0 {
			return &rec.Ops[i]
		}
	}
	return nil
}

// morphSpan is the trigger's window with five boundaries of margin on both
// sides: before the transform, between each flag step, and just after. A
// trace that no longer morphs gets one boundary, and fails the family's
// shape floor.
func morphSpan(rec *Recording) (from, to int) {
	if or := morphTrigger(rec); or != nil {
		return or.FlushStart - 5, or.FlushEnd + 5
	}
	return rec.CreatedAt, rec.CreatedAt
}

// morphShape counts the morphs inside the span: a geometry change that
// stops the trace from morphing fails the family instead of leaving it an
// empty window to enumerate.
func morphShape(rec *Recording, _ *Report) []Counter {
	n := 0
	if or := morphTrigger(rec); or != nil {
		n = int(or.Probe)
	}
	return []Counter{{Name: "morphs", N: n, Min: 1}}
}
