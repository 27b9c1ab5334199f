package experiment

import (
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

// TestCrashMCConcTableShape checks the tables whose CSVs CI diffs against
// results/crashmc_table*.csv, at micro scale: one table per family of
// crashmc.Families, found by ID, one row per target in order (a family or
// row gone missing or added fails here), with the shape minima each
// family's coverage argument rests on and zero violations — for the raced
// families on NVAlloc-LOG and -GC, real conflicts, executed variant
// schedules and at least half of the naive schedules pruned — and no
// Failures, since a sampled run is not gated. Conflict, pruning and shape
// numbers are recording-derived, so the scaled-down run asserts the same
// minima the enumerating run's gate holds.
func TestCrashMCConcTableShape(t *testing.T) {
	tabs := crashMCMicro()
	byID := map[string]*Table{}
	var ids []string
	for _, tab := range tabs {
		byID[tab.ID] = tab
		ids = append(ids, tab.ID)
		if len(tab.Failures) != 0 {
			t.Errorf("%s: a sampled run was gated: %v", tab.ID, tab.Failures)
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

// gateFixture is a synthetic enumerating run that passes the gate: two
// smoke rows, a single-target family with a shape counter and both extra
// cuts, a family keyed by allocator, and a raced family on two targets.
func gateFixture() []*crashmc.FamilyReport {
	sweep := func(n int) *crashmc.Report { return &crashmc.Report{Boundaries: n, Explored: n, TornExplored: n - 1} }
	flips := func(n, detected int) *crashmc.Report {
		return &crashmc.Report{Boundaries: n, Explored: n, Detected: detected}
	}
	fams := []*crashmc.FamilyReport{
		{Family: "smoke", Target: "NVAlloc-LOG", Sweep: sweep(392), Cache: sweep(350), Flip: flips(370, 340)},
		{Family: "smoke", Target: "PMDK", Sweep: sweep(760), Cache: sweep(700), Flip: flips(740, 0)},
		{Family: "publish", Target: "NVAlloc-LOG", Sweep: sweep(923), Recovery: sweep(3136), Cache: sweep(842),
			Flip:  flips(900, 880),
			Shape: []crashmc.Counter{{Name: "morphs", N: 1, Min: 1}, {Name: "replaces", N: 168, Min: 100}}},
		{Family: "morph", Target: "NVAlloc-GC", Sweep: sweep(34), Cache: sweep(33), Flip: flips(34, 27),
			Shape: []crashmc.Counter{{Name: "morphs", N: 1, Min: 1}}},
	}
	for _, tg := range []string{"NVAlloc-LOG", "NVAlloc-GC"} {
		fams = append(fams, &crashmc.FamilyReport{Family: "shard-append-gc", Target: tg, Sweep: sweep(321),
			Shape: crashmc.RaceShape(48, 9, 6, 25)})
	}
	return fams
}

// TestCrashMCGate feeds the gate synthetic reports and shows each of its
// rules firing, alone; the untouched fixture passes. A row's counts are
// not the gate's: the diff of its committed CSV holds them.
func TestCrashMCGate(t *testing.T) {
	if got := gateCrashMC(gateFixture(), nil); len(got) > 0 {
		t.Errorf("the fixture fails the gate: %v", got)
	}
	for _, tc := range []struct {
		name   string
		break_ func(f []*crashmc.FamilyReport) (failed []string)
		want   string
	}{
		{"failed recording", func(f []*crashmc.FamilyReport) []string {
			return []string{"NVAlloc-IC/morph: record failed: synthetic"}
		}, "NVAlloc-IC/morph: record failed: synthetic"},
		{"coverage", func(f []*crashmc.FamilyReport) []string {
			f[1].Sweep.Explored = 759
			return nil
		}, "PMDK/smoke: coverage 759/760 < 100%"},
		{"violation in a cut", func(f []*crashmc.FamilyReport) []string {
			f[2].Recovery.ViolationCount = 2
			return nil
		}, "NVAlloc-LOG/publish: 2 oracle violations"},
		{"violation in a flip cut", func(f []*crashmc.FamilyReport) []string {
			f[3].Flip.ViolationCount = 1
			return nil
		}, "NVAlloc-GC/morph: 1 oracle violations"},
		{"violation under a variant schedule", func(f []*crashmc.FamilyReport) []string {
			f[5].Sweep.ViolationCount = 1
			return nil
		}, "NVAlloc-GC/shard-append-gc: 1 oracle violations"},
		{"shape counter under the family's own minimum", func(f []*crashmc.FamilyReport) []string {
			f[2].Shape[1] = crashmc.Counter{Name: "replaces", N: 120, Min: 130}
			return nil
		}, "NVAlloc-LOG/publish: trace shape: replaces = 120, the family needs >= 130"},
		// The raced rows' shape minima: a conflict, a variant schedule run,
		// and half of the naive schedules pruned.
		{"conflicts", func(f []*crashmc.FamilyReport) []string {
			f[5].Shape = crashmc.RaceShape(48, 0, 6, 25)
			return nil
		}, "NVAlloc-GC/shard-append-gc: trace shape: conflicts = 0, the family needs >= 1"},
		{"schedules", func(f []*crashmc.FamilyReport) []string {
			f[4].Shape = crashmc.RaceShape(48, 9, 0, 25)
			return nil
		}, "NVAlloc-LOG/shard-append-gc: trace shape: schedules_run = 0, the family needs >= 1"},
		{"pruning under half the naive schedules", func(f []*crashmc.FamilyReport) []string {
			f[4].Shape = crashmc.RaceShape(60, 9, 6, 95)
			return nil
		}, "NVAlloc-LOG/shard-append-gc: trace shape: pruned = 85, the family needs >= 90"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := gateFixture()
			got := gateCrashMC(f, tc.break_(f))
			if len(got) != 1 || got[0] != tc.want {
				t.Errorf("regressions:\n  %s\nwant exactly:\n  %s", strings.Join(got, "\n  "), tc.want)
			}
		})
	}
}
