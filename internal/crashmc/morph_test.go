package crashmc

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
)

// morphTrace rebuilds the retired core morph-crash scenario as a trace:
// fill one arena's small class, free everything but a sparse published
// survivor set so the slabs drop under the SU occupancy threshold, then
// allocate a different class until a slab morphs. The §5.2 flag-protocol
// steps all land inside one trigger op's flush window.
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

// TestMorphCrashSweep ports the retired core morph sweep: locate the
// trigger op whose window contains the slab morph (via the recording's
// morph-counter probe) and verify every boundary inside it — before the
// transform, between each flag step, and just after — with torn
// variants, and then from the cache image after each flush of the same
// window. The published old-class survivors must recover at every cut.
func TestMorphCrashSweep(t *testing.T) {
	for _, v := range []core.Variant{core.LOG, core.GC, core.IC} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			tg := TargetOpts(v.String()+"-morph", func() core.Options {
				opts := core.DefaultOptions(v)
				opts.Arenas = 1
				opts.BlogGCThreshold = SmokeGCThreshold
				return opts
			})
			rec, err := Record(tg, morphTrace(), RecordOptions{
				Probe: func(h alloc.Heap) uint64 {
					morphs, _ := h.(*core.Heap).MorphStats()
					return morphs
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Locate the op whose window contains the first morph.
			trigger := -1
			for i, or := range rec.Ops {
				if or.Probe > 0 {
					trigger = i
					break
				}
			}
			if trigger < 0 {
				t.Skip("workload did not trigger a morph; geometry changed?")
			}
			win := rec.Ops[trigger]
			t.Logf("morph inside op %d (%s), window [%d,%d) of %d flushes",
				trigger, win.Op.Kind, win.FlushStart, win.FlushEnd, len(rec.Journal))
			cfg := Config{
				// A little margin on both sides of the morphing op.
				From: win.FlushStart - 5, To: win.FlushEnd + 5,
				Torn: true, TornSeed: 13, CheckEvery: 16,
			}
			if testing.Short() {
				cfg.MaxBoundaries = 30
			}
			rep := Verify(rec, cfg)
			t.Logf("%s", rep)
			checkReport(t, rec, rep, 0, cfg.TornSeed)

			// The same window with the process killed instead of the power
			// cut: the cache image after each flush has the stores of the
			// step under way — the new header fields of step 3 before their
			// line is flushed, under a flag that still says 2.
			var ks []int
			for k := cfg.From + 1; k <= cfg.To; k++ {
				ks = append(ks, k)
			}
			if testing.Short() {
				ks = EveryNth(ks, 3)
			}
			cuts := VerifyCacheCuts(rec, ks, Config{})
			t.Logf("%s", cuts)
			checkReport(t, rec, cuts, 0, 0)
			if cuts.Explored != len(ks) {
				t.Errorf("%d cache-image cuts verified, want %d", cuts.Explored, len(ks))
			}
		})
	}
}
