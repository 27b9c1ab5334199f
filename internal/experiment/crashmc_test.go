package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvalloc/internal/crashmc"
)

// TestCrashMCConcTableShape checks the tables the CI baseline enforces, at
// micro scale: one table per family of crashmc.Families, found by ID, with
// the shape minima each family's coverage argument rests on and zero
// violations; and every NVAlloc target × concurrent family row reporting
// real conflicts, executed variant schedules, >= 50% DPOR pruning, and
// zero violations. Conflict, pruning and shape numbers are
// recording-derived, so the scaled-down run asserts the same floors as
// CI's full enumeration.
func TestCrashMCConcTableShape(t *testing.T) {
	tabs := runCrashMC(Config{Threads: []int{1}, Scale: 0.05, DeviceBytes: 256 << 20}.withDefaults())
	byID := map[string]*Table{}
	var ids []string
	for _, tab := range tabs {
		byID[tab.ID] = tab
		ids = append(ids, tab.ID)
		if len(tab.Notes)+len(tab.Failures) != 0 {
			t.Errorf("%s: a sampled run was gated: %v", tab.ID, tab.Notes)
		}
	}
	want := []string{"crashmc", "crashmc-classes", "crashmc-paths", "crashmc-concurrent", "crashmc-fence-elision",
		"crashmc-write-back", "crashmc-publish", "crashmc-compaction", "crashmc-morph", "crashmc-deep"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("runCrashMC produced tables %v, want %v", ids, want)
	}

	all := []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC", "PMDK", "nvm_malloc", "PAllocator", "Makalu", "Ralloc"}
	nvalloc := all[:3]
	for _, fam := range []struct {
		id   string
		rows []string
		min  map[string]float64
	}{
		{"crashmc", all, map[string]float64{"cache_cuts": 1}},
		{"crashmc-fence-elision", nvalloc[:1], map[string]float64{"cache_cuts": 1}},
		{"crashmc-write-back", nvalloc[:1], map[string]float64{"checkpoint_moves": 8, "morphs": 1, "foreign_reformats": 1,
			"recovery_cuts": 10, "cache_cuts": 1}},
		{"crashmc-publish", nvalloc[:1], map[string]float64{"checkpoint_moves": 8, "morphs": 1, "replaces": 100,
			"cross_arena": 6, "republished": 50, "extents": 8, "recovery_cuts": 40, "cache_cuts": 1}},
		{"crashmc-compaction", nvalloc[:1], map[string]float64{"over_threshold": 100, "runtime_compactions": 2,
			"recovery_cuts": 60, "cache_cuts": 1}},
		{"crashmc-morph", nvalloc, map[string]float64{"morphs": 1, "cache_cuts": 1}},
		{"crashmc-deep", all, map[string]float64{"boundaries": 190, "cache_cuts": 1}},
	} {
		tab := byID[fam.id]
		if len(tab.Rows) != len(fam.rows) {
			t.Fatalf("%s rows: %v, want one per %v", fam.id, tab.Rows, fam.rows)
		}
		for ri, name := range fam.rows {
			if tab.Rows[ri][0] != name {
				t.Fatalf("%s row %d is %q, want %q", fam.id, ri, tab.Rows[ri][0], name)
			}
			fam.min["flip_cuts"] = 1 // every family takes the fourth cut
			for col, min := range fam.min {
				if v := cell(t, tab, ri, colIndex(t, tab, col)); v < min {
					t.Errorf("%s %s: %s = %.0f, want >= %.0f", fam.id, name, col, v, min)
				}
			}
			if v := cell(t, tab, ri, colIndex(t, tab, "violations")); v != 0 {
				t.Errorf("%s %s: %.0f oracle violations", fam.id, name, v)
			}
		}
	}

	conc := byID["crashmc-concurrent"]
	wantRows := len(concTargetNames) * 3 // three families per target
	if len(conc.Rows) != wantRows {
		t.Fatalf("concurrent table has %d rows, want %d:\n%v", len(conc.Rows), wantRows, conc.Rows)
	}
	for ri, row := range conc.Rows {
		who := row[0] + "/" + row[1]
		if c := cell(t, conc, ri, colIndex(t, conc, "conflicts")); c < 1 {
			t.Errorf("%s: no conflicting pairs", who)
		}
		if s := cell(t, conc, ri, colIndex(t, conc, "schedules_run")); s < 1 {
			t.Errorf("%s: no variant schedules executed", who)
		}
		if p := cell(t, conc, ri, colIndex(t, conc, "pruning")); p < 50 {
			t.Errorf("%s: DPOR pruned only %.0f%%, want >= 50%%", who, p)
		}
		if v := cell(t, conc, ri, colIndex(t, conc, "violations")); v != 0 {
			t.Errorf("%s: %.0f oracle violations", who, v)
		}
	}
}

// gateFixture is a synthetic run that satisfies the baseline snapshotted
// from it: two smoke rows, a single-target family with a shape counter and
// both extra cuts, a family keyed by allocator, and two targets of one
// concurrent family.
func gateFixture() (fams []*crashmc.FamilyReport, conc []*crashmc.ConcReport) {
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
	fams = []*crashmc.FamilyReport{
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
		conc = append(conc, &crashmc.ConcReport{
			Report:    crashmc.Report{Target: tg, Trace: "shard-append-gc", Explored: 300},
			Conflicts: 9, NaiveSchedules: 144, PlannedSchedules: 25, SchedulesRun: 6,
		})
	}
	return fams, conc
}

// TestCrashMCGate feeds the gate synthetic reports and shows each of its
// rules firing, alone; the untouched fixture passes.
func TestCrashMCGate(t *testing.T) {
	fams, conc := gateFixture()
	base := newCrashBaseline(fams, conc)
	if got := base.Rows["NVAlloc-LOG/publish"]["min_replaces"]; got != 117 {
		t.Fatalf("publish min_replaces = %d, want 70%% of 168", got)
	}
	if got := base.Rows["NVAlloc-LOG/publish"]["min_morphs"]; got != 1 {
		t.Fatalf("publish min_morphs = %d: an event floor must not round down to 0", got)
	}
	if floor, ok := base.Rows["PMDK/smoke"]["min_detected"]; ok {
		t.Fatalf("PMDK/smoke min_detected = %d: a row that detected nothing has nothing to floor", floor)
	}
	if _, regressions := gateCrashMC(fams, conc, base); len(regressions) > 0 {
		t.Errorf("the fixture fails its own baseline: %v", regressions)
	}

	for _, tc := range []struct {
		name   string
		break_ func(fams []*crashmc.FamilyReport, conc []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport)
		want   string
	}{
		{"boundary floor", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[0].Sweep.Boundaries, f[0].Sweep.Explored = 200, 200
			return f, c
		}, "NVAlloc-LOG/smoke: boundaries 200 < baseline floor 270"},
		{"coverage", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[1].Sweep.Explored = 759
			return f, c
		}, "PMDK/smoke: coverage 759/760 < 100%"},
		{"violation in a cut", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[2].Recovery.ViolationCount = 2
			return f, c
		}, "NVAlloc-LOG/publish: 2 oracle violations"},
		{"torn class", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			delete(f[0].Sweep.TornClasses, "wal-entry")
			return f, c
		}, "NVAlloc-LOG/smoke: torn sweep missed line classes [wal-entry]"},
		{"missing row", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			return f[1:], c
		}, "NVAlloc-LOG/smoke: missing from report"},
		{"missing family", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			return append(f[:2:2], f[3]), c
		}, "NVAlloc-LOG/publish: missing from report"},
		{"family the baseline does not know", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			ic := *f[3]
			ic.Target = "NVAlloc-IC"
			return append(f, &ic), c
		}, "NVAlloc-IC/morph: the baseline has no floors for it (regenerate with -crashmc.update)"},
		{"shape counter under the baseline floor", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[2].Shape[1].N = 110
			return f, c
		}, "NVAlloc-LOG/publish: replaces 110 < baseline floor 117"},
		{"shape counter under the family's own minimum", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[2].Shape[1] = crashmc.Counter{Name: "replaces", N: 120, Min: 130} // over the baseline's 117
			return f, c
		}, "NVAlloc-LOG/publish: trace shape: replaces = 120, the family needs >= 130"},
		{"cut floor", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[2].Cache.Explored = 100
			return f, c
		}, "NVAlloc-LOG/publish: cache_cuts 100 < baseline floor 580"},
		{"violation in a flip cut", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[3].Flip.ViolationCount = 1
			return f, c
		}, "NVAlloc-GC/morph: 1 oracle violations"},
		{"flip cut floor", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[0].Flip.Explored = 240
			return f, c
		}, "NVAlloc-LOG/smoke: flip_cuts 240 < baseline floor 250"},
		{"flips no longer detected", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			f[0].Flip.Detected = 200
			return f, c
		}, "NVAlloc-LOG/smoke: detected 200 < baseline floor 238"},
		{"conflicts", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			c[1].Conflicts = 8
			return f, c
		}, "NVAlloc-GC/shard-append-gc: 8 conflicting pairs < baseline floor 9"},
		{"pruning", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			c[0].PlannedSchedules = 100
			return f, c
		}, "NVAlloc-LOG/shard-append-gc: DPOR pruned 31% of the naive schedule space < floor 50%"},
		{"schedules", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			c[0].SchedulesRun = 0
			return f, c
		}, "NVAlloc-LOG/shard-append-gc: only 0 variant schedules executed"},
		{"violation under a variant schedule", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			c[1].ViolationCount = 1
			return f, c
		}, "NVAlloc-GC/shard-append-gc: 1 oracle violations under variant schedules"},
		{"missing concurrent family", func(f []*crashmc.FamilyReport, c []*crashmc.ConcReport) ([]*crashmc.FamilyReport, []*crashmc.ConcReport) {
			return f, nil
		}, "shard-append-gc: concurrent family missing from report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, c := tc.break_(gateFixture())
			verdict, got := gateCrashMC(f, c, base)
			if len(got) != 1 || got[0] != tc.want {
				t.Errorf("regressions:\n  %s\nwant exactly:\n  %s", strings.Join(got, "\n  "), tc.want)
			}
			if len(verdict) != len(f)+len(c) {
				t.Errorf("%d verdict lines for %d reports", len(verdict), len(f)+len(c))
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
	fams, conc := gateFixture()
	path := filepath.Join(dir, "baseline.json")
	newCrashBaseline(fams, conc).write(path, nil)
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
	if _, regressions := gateCrashMC(fams, conc, doc); len(regressions) > 0 {
		t.Errorf("the run fails the baseline written from it: %v", regressions)
	}
	if _, err := loadCrashBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("a missing baseline loaded")
	}

	refused := filepath.Join(dir, "refused.json")
	newCrashBaseline(fams, conc).write(refused, []string{"synthetic violation"})
	if _, err := os.Stat(refused); !os.IsNotExist(err) {
		t.Errorf("refused update still wrote a file (stat err %v)", err)
	}
}
