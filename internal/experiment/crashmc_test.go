package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nvalloc/internal/crashmc"
)

// crashMCMicro is the package's one run of the crashmc experiment, at micro
// scale: the table-shape test and the every-experiment smoke test both
// read it, so the families are recorded and cut once per test binary.
var crashMCMicro = sync.OnceValue(func() []*Table {
	return runCrashMC(Config{Threads: []int{1}, Scale: 0.05, DeviceBytes: 256 << 20}.withDefaults())
})

// TestCrashMCConcTableShape checks the tables the CI baseline enforces, at
// micro scale: one table per family of crashmc.Families, found by ID, with
// the shape minima each family's coverage argument rests on and zero
// violations — for the raced families on NVAlloc-LOG and -GC, real
// conflicts, executed variant schedules and at least half of the naive
// schedules pruned. Conflict, pruning and shape numbers are
// recording-derived, so the scaled-down run asserts the same floors as
// CI's full enumeration.
func TestCrashMCConcTableShape(t *testing.T) {
	tabs := crashMCMicro()
	byID := map[string]*Table{}
	var ids []string
	for _, tab := range tabs {
		byID[tab.ID] = tab
		ids = append(ids, tab.ID)
		if len(tab.Notes)+len(tab.Failures) != 0 {
			t.Errorf("%s: a sampled run was gated: %v", tab.ID, tab.Notes)
		}
	}
	want := []string{"crashmc", "crashmc-classes", "crashmc-paths", "crashmc-fence-elision",
		"crashmc-write-back", "crashmc-publish", "crashmc-compaction", "crashmc-morph", "crashmc-deep",
		"crashmc-shard-append-gc", "crashmc-remote-free-drain", "crashmc-extent-refill-free", "crashmc-kv-session",
		"crashmc-sweep", "crashmc-handles", "crashmc-shards", "crashmc-remote-free-prefix", "crashmc-close-witness"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("runCrashMC produced tables %v, want %v", ids, want)
	}

	all := []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC", "PMDK", "nvm_malloc", "PAllocator", "Makalu", "Ralloc"}
	nvalloc := all[:3]
	raced := map[string]float64{"conflicts": 1, "schedules_run": 1}
	for _, fam := range []struct {
		id   string
		rows []string
		min  map[string]float64
	}{
		{"crashmc", all, map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-fence-elision", nvalloc[:1], map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-write-back", nvalloc[:1], map[string]float64{"checkpoint_moves": 8, "morphs": 1, "foreign_reformats": 1,
			"recovery_cuts": 10, "cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-publish", nvalloc[:1], map[string]float64{"checkpoint_moves": 8, "morphs": 1, "replaces": 100,
			"cross_arena": 6, "republished": 50, "extents": 8, "recovery_cuts": 40, "cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-compaction", nvalloc[:1], map[string]float64{"over_threshold": 100, "runtime_compactions": 2,
			"recovery_cuts": 60, "cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-morph", nvalloc, map[string]float64{"morphs": 1, "cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-deep", all, map[string]float64{"boundaries": 190, "cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-shard-append-gc", nvalloc[:2], raced},
		{"crashmc-remote-free-drain", nvalloc[:2], raced},
		{"crashmc-extent-refill-free", nvalloc[:2], raced},
		{"crashmc-kv-session", nvalloc[:1], map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-sweep", nvalloc, map[string]float64{"recovery_cuts": 2, "cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-handles", nvalloc[:1], map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-shards", nvalloc[:1], map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-remote-free-prefix", nvalloc[:1], map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
		{"crashmc-close-witness", nvalloc[:2], map[string]float64{"cache_cuts": 1, "flip_cuts": 1}},
	} {
		tab := byID[fam.id]
		if len(tab.Rows) != len(fam.rows) {
			t.Fatalf("%s rows: %v, want one per %v", fam.id, tab.Rows, fam.rows)
		}
		for ri, name := range fam.rows {
			if tab.Rows[ri][0] != name {
				t.Fatalf("%s row %d is %q, want %q", fam.id, ri, tab.Rows[ri][0], name)
			}
			for col, min := range fam.min {
				if v := cell(t, tab, ri, colIndex(t, tab, col)); v < min {
					t.Errorf("%s %s: %s = %.0f, want >= %.0f", fam.id, name, col, v, min)
				}
			}
			if v := cell(t, tab, ri, colIndex(t, tab, "violations")); v != 0 {
				t.Errorf("%s %s: %.0f oracle violations", fam.id, name, v)
			}
			if fam.min["conflicts"] == 0 {
				continue
			}
			pruned, naive := cell(t, tab, ri, colIndex(t, tab, "pruned")), cell(t, tab, ri, colIndex(t, tab, "naive"))
			if 2*pruned < naive {
				t.Errorf("%s %s: DPOR pruned only %.0f of %.0f naive schedules, want at least half", fam.id, name, pruned, naive)
			}
		}
	}
}

// gateFixture is a synthetic run that satisfies the baseline snapshotted
// from it: two smoke rows, a single-target family with a shape counter and
// both extra cuts, a family keyed by allocator, and a raced family on two
// targets.
func gateFixture() []*crashmc.FamilyReport {
	sweep := func(n int, torn ...string) *crashmc.Report {
		r := &crashmc.Report{Boundaries: n, Explored: n, TornExplored: n - 1, TornClasses: map[string]int{}}
		for _, cl := range torn {
			r.TornClasses[cl] = 3
		}
		return r
	}
	cuts := func(n int) *crashmc.Report { return &crashmc.Report{Boundaries: n, Explored: n} }
	flips := func(n, detected int) *crashmc.Report {
		return &crashmc.Report{Boundaries: n, Explored: n, Detected: detected}
	}
	fams := []*crashmc.FamilyReport{
		{Family: "smoke", Target: "NVAlloc-LOG", Sweep: sweep(392, "wal-entry", "bitmap-stripe"), Cache: cuts(350),
			Flip: flips(370, 340)},
		{Family: "smoke", Target: "PMDK", Sweep: sweep(760, "other"), Cache: cuts(700), Flip: flips(740, 0)},
		{Family: "publish", Target: "NVAlloc-LOG", Sweep: sweep(923), Recovery: cuts(3136), Cache: cuts(842),
			Flip:  flips(900, 880),
			Shape: []crashmc.Counter{{Name: "morphs", N: 1, Min: 1}, {Name: "replaces", N: 168, Min: 100}}},
		{Family: "morph", Target: "NVAlloc-GC", Sweep: sweep(34), Cache: cuts(33), Flip: flips(34, 27),
			Shape: []crashmc.Counter{{Name: "morphs", N: 1, Min: 1}}},
	}
	for _, tg := range []string{"NVAlloc-LOG", "NVAlloc-GC"} {
		fams = append(fams, &crashmc.FamilyReport{Family: "shard-append-gc", Target: tg, Sweep: sweep(321),
			Shape: crashmc.RaceShape(48, 9, 6, 25)})
	}
	return fams
}

// TestCrashMCGate feeds the gate synthetic reports and shows each of its
// rules firing, alone; the untouched fixture passes.
func TestCrashMCGate(t *testing.T) {
	base := newCrashBaseline(gateFixture())
	if got := base.Rows["NVAlloc-LOG/publish"]["min_replaces"]; got != 117 {
		t.Fatalf("publish min_replaces = %d, want 70%% of 168", got)
	}
	if got := base.Rows["NVAlloc-LOG/publish"]["min_morphs"]; got != 1 {
		t.Fatalf("publish min_morphs = %d: an event floor must not round down to 0", got)
	}
	if floor, ok := base.Rows["PMDK/smoke"]["min_detected"]; ok {
		t.Fatalf("PMDK/smoke min_detected = %d: a row that detected nothing has nothing to floor", floor)
	}
	if _, regressions := gateCrashMC(gateFixture(), base); len(regressions) > 0 {
		t.Errorf("the fixture fails its own baseline: %v", regressions)
	}

	for _, tc := range []struct {
		name   string
		break_ func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport
		want   string
	}{
		{"boundary floor", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[0].Sweep.Boundaries, f[0].Sweep.Explored = 200, 200
			return f
		}, "NVAlloc-LOG/smoke: boundaries 200 < baseline floor 270"},
		{"coverage", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[1].Sweep.Explored = 759
			return f
		}, "PMDK/smoke: coverage 759/760 < 100%"},
		{"violation in a cut", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[2].Recovery.ViolationCount = 2
			return f
		}, "NVAlloc-LOG/publish: 2 oracle violations"},
		{"torn class", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			delete(f[0].Sweep.TornClasses, "wal-entry")
			return f
		}, "NVAlloc-LOG/smoke: torn sweep missed line classes [wal-entry]"},
		{"missing row", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			return f[1:]
		}, "NVAlloc-LOG/smoke: missing from report"},
		{"missing family", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			return append(f[:2:2], f[3:]...)
		}, "NVAlloc-LOG/publish: missing from report"},
		{"family the baseline does not know", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			ic := *f[3]
			ic.Target = "NVAlloc-IC"
			return append(f, &ic)
		}, "NVAlloc-IC/morph: the baseline has no floors for it (regenerate with -crashmc.update)"},
		{"shape counter under the baseline floor", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[2].Shape[1].N = 110
			return f
		}, "NVAlloc-LOG/publish: replaces 110 < baseline floor 117"},
		{"shape counter under the family's own minimum", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[2].Shape[1] = crashmc.Counter{Name: "replaces", N: 120, Min: 130} // over the baseline's 117
			return f
		}, "NVAlloc-LOG/publish: trace shape: replaces = 120, the family needs >= 130"},
		{"cut floor", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[2].Cache.Explored = 100
			return f
		}, "NVAlloc-LOG/publish: cache_cuts 100 < baseline floor 580"},
		{"violation in a flip cut", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[3].Flip.ViolationCount = 1
			return f
		}, "NVAlloc-GC/morph: 1 oracle violations"},
		{"flip cut floor", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[0].Flip.Explored = 240
			return f
		}, "NVAlloc-LOG/smoke: flip_cuts 240 < baseline floor 250"},
		{"flips no longer detected", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[0].Flip.Detected = 200
			return f
		}, "NVAlloc-LOG/smoke: detected 200 < baseline floor 238"},
		// The raced rows: their conflicts are floored at the count itself.
		{"conflicts", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[5].Shape = crashmc.RaceShape(48, 8, 6, 25)
			return f
		}, "NVAlloc-GC/shard-append-gc: conflicts 8 < baseline floor 9"},
		{"pruning", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[4].Shape = crashmc.RaceShape(48, 9, 6, 70) // still half of the 144 naive ones
			return f
		}, "NVAlloc-LOG/shard-append-gc: pruned 74 < baseline floor 83"},
		{"pruning under half the naive schedules", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[4].Shape = crashmc.RaceShape(60, 9, 6, 95) // over the baseline's 83
			return f
		}, "NVAlloc-LOG/shard-append-gc: trace shape: pruned = 85, the family needs >= 90"},
		{"schedules", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[4].Shape = crashmc.RaceShape(48, 9, 3, 25)
			return f
		}, "NVAlloc-LOG/shard-append-gc: schedules_run 3 < baseline floor 4"},
		{"violation under a variant schedule", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			f[5].Sweep.ViolationCount = 1
			return f
		}, "NVAlloc-GC/shard-append-gc: 1 oracle violations"},
		{"missing concurrent family", func(f []*crashmc.FamilyReport) []*crashmc.FamilyReport {
			return f[:5]
		}, "NVAlloc-GC/shard-append-gc: missing from report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.break_(gateFixture())
			verdict, got := gateCrashMC(f, base)
			if len(got) != 1 || got[0] != tc.want {
				t.Errorf("regressions:\n  %s\nwant exactly:\n  %s", strings.Join(got, "\n  "), tc.want)
			}
			if len(verdict) != len(f) {
				t.Errorf("%d verdict lines for %d reports", len(verdict), len(f))
			}
		})
	}
}

// TestCrashMCBaselineWrite checks the -crashmc.update generator: a clean
// run writes a baseline that parses back to the floors it was built with
// and that the run itself satisfies, and any failure of the run suppresses
// the write entirely.
func TestCrashMCBaselineWrite(t *testing.T) {
	dir := t.TempDir()
	fams := gateFixture()
	path := filepath.Join(dir, "baseline.json")
	newCrashBaseline(fams).write(path, nil)
	doc, err := loadCrashBaseline(path)
	if err != nil {
		t.Fatalf("clean run wrote no baseline that parses: %v", err)
	}
	if got := doc.Rows["NVAlloc-LOG/smoke"]["min_boundaries"]; got != 270 {
		t.Errorf("NVAlloc-LOG boundary floor %d, want 270 (70%% of 392, down to a multiple of 10)", got)
	}
	if got := doc.Rows["PMDK/smoke"]["min_cache_cuts"]; got != 490 {
		t.Errorf("PMDK cache-cut floor %d, want 490", got)
	}
	if _, ok := doc.RequiredTornClasses["PMDK"]; ok {
		t.Error("baseline-model allocator got a torn-class requirement")
	}
	if got := strings.Join(doc.RequiredTornClasses["NVAlloc-LOG"], ","); got != "bitmap-stripe,wal-entry" {
		t.Errorf("NVAlloc-LOG torn classes %q", got)
	}
	if got := doc.Rows["NVAlloc-GC/morph"]["min_morphs"]; got != 1 {
		t.Errorf("NVAlloc-GC/morph: min_morphs = %d", got)
	}
	if got := doc.Rows["NVAlloc-GC/shard-append-gc"]; got["min_conflicts"] != 9 || got["min_schedules_run"] != 4 ||
		got["min_pruned"] != 83 || got["min_boundaries"] != 220 {
		t.Errorf("NVAlloc-GC/shard-append-gc floors %v, want conflicts 9 exactly, 70%% of the rest", got)
	}
	if _, regressions := gateCrashMC(fams, doc); len(regressions) > 0 {
		t.Errorf("the run fails the baseline written from it: %v", regressions)
	}
	// A row with a few recovery cuts floors every one of them, not 0.
	for n, want := range map[int]int{2: 2, 10: 10, 20: 10} {
		few := newCrashBaseline([]*crashmc.FamilyReport{{Family: "sweep", Target: "NVAlloc-IC",
			Sweep: &crashmc.Report{Boundaries: 810, Explored: 810}, Recovery: &crashmc.Report{Boundaries: n, Explored: n}}})
		if got := few.Rows["NVAlloc-IC/sweep"]["min_recovery_cuts"]; got != want {
			t.Errorf("%d recovery cuts floored at %d, want %d", n, got, want)
		}
	}
	if _, err := loadCrashBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("a missing baseline loaded")
	}

	refused := filepath.Join(dir, "refused.json")
	newCrashBaseline(fams).write(refused, []string{"synthetic violation"})
	if _, err := os.Stat(refused); !os.IsNotExist(err) {
		t.Errorf("refused update still wrote a file (stat err %v)", err)
	}
}
