package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"nvalloc/internal/crashmc"
	"nvalloc/internal/torture"
)

func init() {
	register("crashmc", runCrashMC)
}

// runCrashMC runs the crash-point model checker's smoke enumeration over
// every allocator: record the smoke trace once per target, then verify
// the recovery oracle at every persistence boundary (and its torn-line
// variant) using the experiment worker pool. The first table is the
// headline coverage report — boundaries, coverage, distinct recovery
// paths, violations — the second breaks explored boundaries down by
// in-flight line class (wal-entry, bitmap-stripe, blog-entry,
// slab-header, ...), and the third lists the recovery paths (trace phase
// × line class) the enumeration actually drove. The fourth table is the
// concurrent checker: each conflicting-pair trace family is enumerated
// under DPOR-reduced preemptive schedules on the NVAlloc targets, with
// the candidate/conflict/pruning accounting the baseline enforces. The
// fifth is the fence-elision family, then the write-back, publish and
// compaction families; the write-back and publish tables also count the
// cache-image cuts (cache_cuts): recoveries from the cache image as each
// flush of the trace's operations completes, the state a killed process
// leaves in a heap file the page cache backs.
func runCrashMC(cfg Config) []*Table {
	targets := crashmc.Targets()
	seed := uint64(42)
	recs := make([]*crashmc.Recording, len(targets))
	errs := make([]error, len(targets))
	jobs := make([]func(), len(targets))
	for i := range targets {
		i := i
		jobs[i] = func() {
			recs[i], errs[i] = crashmc.Record(targets[i], crashmc.SmokeTrace(seed),
				crashmc.RecordOptions{})
		}
	}
	runJobs(cfg, jobs)

	head := &Table{
		ID:    "crashmc",
		Title: fmt.Sprintf("crash-point model checker, smoke trace (seed %d), every boundary + torn variants", seed),
		Columns: []string{"allocator", "boundaries", "explored", "coverage",
			"torn", "paths", "checks", "violations"},
	}
	classes := &Table{
		ID:      "crashmc-classes",
		Title:   "explored boundaries by in-flight line class (clean/torn counts)",
		Columns: []string{"allocator", "class", "clean", "torn"},
	}
	pathAgg := map[string]int{}
	bl := &baselineBuild{
		Boundaries:  map[string]int{},
		TornClasses: map[string][]string{},
	}
	for i, tg := range targets {
		if errs[i] != nil {
			head.Rows = append(head.Rows, []string{tg.Name,
				"record failed: " + errs[i].Error(), "", "", "", "", "", ""})
			bl.refuse("%s: record failed: %v", tg.Name, errs[i])
			continue
		}
		vcfg := crashmc.Config{
			Torn: true, TornSeed: 0xDECAF, CheckEvery: 64,
			Pool: cfg.RunCells,
		}
		if cfg.Scale < 1 {
			// Scaled-down runs (the micro-scale smoke test) sample the
			// boundary space instead of enumerating it; -exp crashmc at the
			// default scale stays exhaustive.
			vcfg.MaxBoundaries = cfg.ops(750)
		}
		rep := crashmc.Verify(recs[i], vcfg)
		bl.Boundaries[tg.Name] = rep.Boundaries
		if rep.Explored < rep.Boundaries {
			bl.refuse("%s: sampled %d/%d boundaries (run with -scale >= 1 to enumerate)",
				tg.Name, rep.Explored, rep.Boundaries)
		}
		if rep.ViolationCount > 0 {
			bl.refuse("%s: %d oracle violations", tg.Name, rep.ViolationCount)
		}
		for _, cl := range rep.ClassNames() {
			if rep.TornClasses[cl] > 0 {
				bl.TornClasses[tg.Name] = append(bl.TornClasses[tg.Name], cl)
			}
		}
		head.Rows = append(head.Rows, []string{
			tg.Name,
			fmt.Sprint(rep.Boundaries),
			fmt.Sprint(rep.Explored),
			pct(rep.Coverage()),
			fmt.Sprint(rep.TornExplored),
			fmt.Sprint(len(rep.Paths)),
			fmt.Sprint(rep.Checks),
			fmt.Sprint(rep.ViolationCount),
		})
		for _, cl := range rep.ClassNames() {
			classes.Rows = append(classes.Rows, []string{
				tg.Name, cl,
				fmt.Sprint(rep.Classes[cl]),
				fmt.Sprint(rep.TornClasses[cl]),
			})
		}
		for p, n := range rep.Paths {
			pathAgg[p] += n
		}
		for _, v := range rep.Violations {
			// Violations are a CI failure; surface them in the text output.
			head.Rows = append(head.Rows, []string{"", "  " + v.String(),
				"", "", "", "", "", ""})
		}
	}

	paths := &Table{
		ID:      "crashmc-paths",
		Title:   "distinct recovery paths driven (trace phase × in-flight line class), all allocators",
		Columns: []string{"path", "boundaries"},
	}
	names := make([]string, 0, len(pathAgg))
	for p := range pathAgg {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		paths.Rows = append(paths.Rows, []string{p, fmt.Sprint(pathAgg[p])})
	}

	conc := runCrashMCConc(cfg, targets, seed, bl)
	fence := runCrashMCFence(cfg, targets, seed, bl)
	wb := runCrashMCWriteBack(cfg, bl)
	pub := runCrashMCPublish(cfg, bl)
	comp := runCrashMCCompaction(cfg, bl)

	if cfg.CrashMCBaselineOut != "" {
		bl.write(cfg.CrashMCBaselineOut)
	}
	return []*Table{head, classes, paths, conc, fence, wb, pub, comp}
}

// runCrashMCCompaction enumerates the compaction family: NVAlloc-LOG with
// one bookkeeping shard, opened with the low slow-GC threshold it was
// created with, on a trace that holds the log over that threshold for long
// runs of operations. Every boundary is verified clean and torn against
// the shared and the live-set oracle; then power is cut a second time
// after every flush of every recovery that compacts the log.
func runCrashMCCompaction(cfg Config, bl *baselineBuild) *Table {
	comp := &Table{
		ID: "crashmc-compaction",
		Title: "compaction family: bookkeeping log over its slow-GC threshold, every boundary + torn variants " +
			"against the live-set oracle, and a second crash after every flush of a recovery that compacts",
		Columns: []string{"allocator", "boundaries", "explored", "coverage", "torn",
			"over_threshold", "runtime_compactions", "recovery_cuts", "violations"},
	}
	name := crashmc.CompactionTarget().Name
	fail := func(msg string) *Table {
		comp.Rows = append(comp.Rows, append([]string{name, msg}, make([]string, len(comp.Columns)-2)...))
		return comp
	}
	rec, err := crashmc.RecordCompaction()
	if err != nil {
		bl.refuse("%s/compaction: record failed: %v", name, err)
		return fail("record failed: " + err.Error())
	}
	oracle := crashmc.LiveSetOracle(rec)
	vcfg := crashmc.Config{Torn: true, TornSeed: 0xDECAF, CheckEvery: 64, Pool: cfg.RunCells, Extra: oracle}
	ks := rec.CompactionWindows()
	if cfg.Scale < 1 {
		vcfg.MaxBoundaries = cfg.ops(200)
		ks = crashmc.EveryNth(ks, 50)
	}
	rep := crashmc.Verify(rec, vcfg)
	cuts := crashmc.VerifyRecoveryCrashes(rec, ks, crashmc.Config{Pool: cfg.RunCells, Extra: oracle})
	shape := rec.CompactionShape()
	floor := func(n int) int { return n * 7 / 10 }
	bl.Compaction = &compactionBaseline{
		MinBoundaries:         floor(rep.Boundaries) / 10 * 10,
		MinOverThreshold:      floor(shape.OverThreshold),
		MinRuntimeCompactions: 2,
		MinRecoveryCuts:       floor(cuts.Explored) / 10 * 10,
	}
	if rep.Explored < rep.Boundaries {
		bl.refuse("%s/compaction: sampled %d/%d boundaries", name, rep.Explored, rep.Boundaries)
	}
	if n := rep.ViolationCount + cuts.ViolationCount; n > 0 {
		bl.refuse("%s/compaction: %d oracle violations", name, n)
	}
	if shape.OverThreshold == 0 || shape.RuntimeCompactions < 2 {
		bl.refuse("%s/compaction: trace shape %+v no longer holds the log over its threshold", name, shape)
	}
	comp.Rows = append(comp.Rows, []string{
		name,
		fmt.Sprint(rep.Boundaries),
		fmt.Sprint(rep.Explored),
		pct(rep.Coverage()),
		fmt.Sprint(rep.TornExplored),
		fmt.Sprint(shape.OverThreshold),
		fmt.Sprint(shape.RuntimeCompactions),
		fmt.Sprint(cuts.Explored),
		fmt.Sprint(rep.ViolationCount + cuts.ViolationCount),
	})
	for _, v := range append(rep.Violations, cuts.Violations...) {
		comp.Rows = append(comp.Rows, append([]string{"", "  " + v.String()}, make([]string, len(comp.Columns)-2)...))
	}
	return comp
}

// runCrashMCPublish enumerates the publish family: NVAlloc-LOG on the
// write-back family's target, a trace of inserts, replaces and deletes
// through Thread.Publish on recycled slots — own and cross-arena old
// blocks, extents, a morph in between — with the rings wrapping
// underneath. Every boundary is verified clean and torn against the
// shared oracle plus the live-set oracle (the heap's objects are exactly
// the blocks the trace holds); then power is cut a second time after
// every flush of every recovery that finds a publish group in flight.
func runCrashMCPublish(cfg Config, bl *baselineBuild) *Table {
	pub := &Table{
		ID: "crashmc-publish",
		Title: "publish family: reserve → fill → publish groups on the minimum WAL ring, every boundary + " +
			"torn variants against the live-set oracle, and a second crash after every flush of recovery",
		Columns: []string{"allocator", "boundaries", "explored", "coverage", "torn", "checkpoint_moves",
			"morphs", "replaces", "cross_arena", "republished", "extents", "recovery_cuts", "cache_cuts", "violations"},
	}
	name := crashmc.WriteBackTarget().Name
	fail := func(msg string) *Table {
		pub.Rows = append(pub.Rows, append([]string{name, msg}, make([]string, len(pub.Columns)-2)...))
		return pub
	}
	rec, err := crashmc.RecordPublish()
	if err != nil {
		bl.refuse("%s/publish: record failed: %v", name, err)
		return fail("record failed: " + err.Error())
	}
	oracle := crashmc.LiveSetOracle(rec)
	vcfg := crashmc.Config{Torn: true, TornSeed: 0xDECAF, CheckEvery: 64, Pool: cfg.RunCells, Extra: oracle}
	ks, kills := rec.PublishWindows(), rec.OpFlushes()
	if cfg.Scale < 1 {
		vcfg.MaxBoundaries = cfg.ops(200)
		ks, kills = crashmc.EveryNth(ks, 50), crashmc.EveryNth(kills, 50)
	}
	rep := crashmc.Verify(rec, vcfg)
	cuts := crashmc.VerifyRecoveryCrashes(rec, ks, crashmc.Config{Pool: cfg.RunCells, Extra: oracle})
	cache := crashmc.VerifyCacheCuts(rec, kills, crashmc.Config{Pool: cfg.RunCells, Extra: oracle})
	shape := rec.PublishShape()
	floor := func(n int) int { return n * 7 / 10 }
	bl.Publish = &publishBaseline{
		MinBoundaries:      floor(rep.Boundaries) / 10 * 10,
		MinCheckpointMoves: floor(shape.CheckpointMoves),
		MinMorphs:          1,
		MinReplaces:        floor(shape.Replaces),
		MinCrossArena:      floor(shape.CrossArena),
		MinRepublished:     floor(shape.Republished),
		MinExtents:         floor(shape.Extents),
		MinRecoveryCuts:    floor(cuts.Explored) / 10 * 10,
		MinCacheCuts:       floor(cache.Explored) / 10 * 10,
	}
	if rep.Explored < rep.Boundaries {
		bl.refuse("%s/publish: sampled %d/%d boundaries", name, rep.Explored, rep.Boundaries)
	}
	violations := rep.ViolationCount + cuts.ViolationCount + cache.ViolationCount
	if violations > 0 {
		bl.refuse("%s/publish: %d oracle violations", name, violations)
	}
	if shape.Morphs == 0 || shape.CrossArena == 0 || shape.Republished == 0 || shape.Extents == 0 {
		bl.refuse("%s/publish: trace shape %+v lost one of its events", name, shape)
	}
	pub.Rows = append(pub.Rows, []string{
		name,
		fmt.Sprint(rep.Boundaries),
		fmt.Sprint(rep.Explored),
		pct(rep.Coverage()),
		fmt.Sprint(rep.TornExplored),
		fmt.Sprint(shape.CheckpointMoves),
		fmt.Sprint(shape.Morphs),
		fmt.Sprint(shape.Replaces),
		fmt.Sprint(shape.CrossArena),
		fmt.Sprint(shape.Republished),
		fmt.Sprint(shape.Extents),
		fmt.Sprint(cuts.Explored),
		fmt.Sprint(cache.Explored),
		fmt.Sprint(violations),
	})
	for _, v := range slices.Concat(rep.Violations, cuts.Violations, cache.Violations) {
		pub.Rows = append(pub.Rows, append([]string{"", "  " + v.String()}, make([]string, len(pub.Columns)-2)...))
	}
	return pub
}

// runCrashMCWriteBack enumerates the write-back family: NVAlloc-LOG on
// the smallest legal WAL ring, a trace that wraps both rings several
// times through every kind of small commit, a morph, and a slab released
// by one arena and formatted by the other. Every boundary is verified
// clean and torn; then power is cut a second time after every flush of
// the recoveries that start from a full, unwritten ring (recovery_cuts).
// The shape columns are gated too: the coverage argument rests on the
// trace still reaching those events.
func runCrashMCWriteBack(cfg Config, bl *baselineBuild) *Table {
	wb := &Table{
		ID: "crashmc-write-back",
		Title: "write-back family: minimum WAL ring, every boundary + torn variants, " +
			"and a second crash after every flush of recovery",
		Columns: []string{"allocator", "boundaries", "explored", "coverage", "torn",
			"checkpoint_moves", "morphs", "foreign_reformats", "recovery_cuts", "cache_cuts", "violations"},
	}
	name := crashmc.WriteBackTarget().Name
	rec, err := crashmc.RecordWriteBack()
	if err != nil {
		wb.Rows = append(wb.Rows, append([]string{name, "record failed: " + err.Error()}, make([]string, len(wb.Columns)-2)...))
		bl.refuse("%s/write-back: record failed: %v", name, err)
		return wb
	}
	vcfg := crashmc.Config{Torn: true, TornSeed: 0xDECAF, CheckEvery: 64, Pool: cfg.RunCells}
	ks, kills := rec.WriteBackStarts(), rec.OpFlushes()
	if cfg.Scale < 1 {
		vcfg.MaxBoundaries = cfg.ops(200)
		if len(ks) > 1 {
			ks = ks[len(ks)-1:]
		}
		kills = crashmc.EveryNth(kills, 50)
	}
	rep := crashmc.Verify(rec, vcfg)
	cuts := crashmc.VerifyRecoveryCrashes(rec, ks, crashmc.Config{Pool: cfg.RunCells})
	cache := crashmc.VerifyCacheCuts(rec, kills, crashmc.Config{Pool: cfg.RunCells})
	shape := rec.WriteBackShape()
	bl.WriteBack = &writeBackBaseline{
		MinBoundaries:       rep.Boundaries * 7 / 10 / 10 * 10,
		MinCheckpointMoves:  shape.CheckpointMoves * 7 / 10,
		MinMorphs:           1,
		MinForeignReformats: 1,
		MinRecoveryCuts:     cuts.Explored * 7 / 10 / 10 * 10,
		MinCacheCuts:        cache.Explored * 7 / 10 / 10 * 10,
	}
	if rep.Explored < rep.Boundaries {
		bl.refuse("%s/write-back: sampled %d/%d boundaries", name, rep.Explored, rep.Boundaries)
	}
	violations := rep.ViolationCount + cuts.ViolationCount + cache.ViolationCount
	if violations > 0 {
		bl.refuse("%s/write-back: %d oracle violations", name, violations)
	}
	if shape.Morphs == 0 || shape.ForeignReformats == 0 {
		bl.refuse("%s/write-back: trace shape %+v lost a morph or a foreign re-format", name, shape)
	}
	wb.Rows = append(wb.Rows, []string{
		name,
		fmt.Sprint(rep.Boundaries),
		fmt.Sprint(rep.Explored),
		pct(rep.Coverage()),
		fmt.Sprint(rep.TornExplored),
		fmt.Sprint(shape.CheckpointMoves),
		fmt.Sprint(shape.Morphs),
		fmt.Sprint(shape.ForeignReformats),
		fmt.Sprint(cuts.Explored),
		fmt.Sprint(cache.Explored),
		fmt.Sprint(violations),
	})
	for _, v := range slices.Concat(rep.Violations, cuts.Violations, cache.Violations) {
		wb.Rows = append(wb.Rows, append([]string{"", "  " + v.String()}, make([]string, len(wb.Columns)-2)...))
	}
	return wb
}

// runCrashMCFence enumerates the fence-elision family on the LOG target:
// the trace that concentrates crash boundaries inside the windows where
// the hot paths merged two (or, for the remote-free drain, up to
// seventeen) post-commit fences into one. The table reports, alongside
// the usual coverage numbers, the clean/torn boundary counts of the two
// line classes the elision puts at risk — wal-entry and bitmap-stripe —
// which the baseline requires to be nonzero in both columns: the proof
// obligation is not just "no violations" but "the at-risk windows were
// actually entered, torn variants included".
func runCrashMCFence(cfg Config, targets []torture.Target, seed uint64, bl *baselineBuild) *Table {
	fence := &Table{
		ID: "crashmc-fence-elision",
		Title: fmt.Sprintf("fence-elision family (seed %d): every boundary inside a merged-fence "+
			"window + torn variants", seed),
		Columns: []string{"allocator", "boundaries", "explored", "coverage", "torn",
			"wal_clean", "wal_torn", "bitmap_clean", "bitmap_torn", "violations"},
	}
	for _, tg := range targets {
		if tg.Name != "NVAlloc-LOG" {
			continue
		}
		rec, err := crashmc.Record(tg, crashmc.FenceElisionTrace(seed), crashmc.RecordOptions{})
		if err != nil {
			fence.Rows = append(fence.Rows, []string{tg.Name,
				"record failed: " + err.Error(), "", "", "", "", "", "", "", ""})
			bl.refuse("%s/fence-elision: record failed: %v", tg.Name, err)
			continue
		}
		vcfg := crashmc.Config{
			Torn: true, TornSeed: 0xDECAF, CheckEvery: 64,
			Pool: cfg.RunCells,
		}
		if cfg.Scale < 1 {
			vcfg.MaxBoundaries = cfg.ops(200)
		}
		rep := crashmc.Verify(rec, vcfg)
		bl.FenceBoundaries = rep.Boundaries
		if rep.Explored < rep.Boundaries {
			bl.refuse("%s/fence-elision: sampled %d/%d boundaries", tg.Name, rep.Explored, rep.Boundaries)
		}
		if rep.ViolationCount > 0 {
			bl.refuse("%s/fence-elision: %d oracle violations", tg.Name, rep.ViolationCount)
		}
		fence.Rows = append(fence.Rows, []string{
			tg.Name,
			fmt.Sprint(rep.Boundaries),
			fmt.Sprint(rep.Explored),
			pct(rep.Coverage()),
			fmt.Sprint(rep.TornExplored),
			fmt.Sprint(rep.Classes["wal-entry"]),
			fmt.Sprint(rep.TornClasses["wal-entry"]),
			fmt.Sprint(rep.Classes["bitmap-stripe"]),
			fmt.Sprint(rep.TornClasses["bitmap-stripe"]),
			fmt.Sprint(rep.ViolationCount),
		})
		for _, v := range rep.Violations {
			fence.Rows = append(fence.Rows, []string{"", "  " + v.String(),
				"", "", "", "", "", "", "", ""})
		}
	}
	return fence
}

// concTargetNames are the allocators the concurrent families target: the
// two NVAlloc consistency modes whose sharded-log, remote-free and
// extent machinery the families race. (IC shares LOG's code paths for
// all three families; the baselines have no concurrent machinery.)
var concTargetNames = []string{"NVAlloc-LOG", "NVAlloc-GC"}

// runCrashMCConc enumerates the concurrent trace families under
// DPOR-reduced preemptive schedules and reports the schedule-space
// accounting CI enforces: candidates vs conflicts, naive vs planned vs
// executed schedules, the pruning fraction, and the verified
// schedule × boundary space.
func runCrashMCConc(cfg Config, targets []torture.Target, seed uint64, bl *baselineBuild) *Table {
	budget := cfg.CrashMCSchedBudget
	switch {
	case budget == 0:
		budget = 6 // the PR-smoke default: bounded, still > PreemptsPerPair
	case budget < 0:
		budget = 0 // ConcOptions: <= 0 means uncapped (the nightly run)
	}
	families := crashmc.ConcFamilies(seed)
	var tgs []torture.Target
	for _, tg := range targets {
		for _, n := range concTargetNames {
			if tg.Name == n {
				tgs = append(tgs, tg)
			}
		}
	}

	reps := make([]*crashmc.ConcReport, len(tgs)*len(families))
	errs := make([]error, len(reps))
	jobs := make([]func(), len(reps))
	for i := range reps {
		i := i
		tg, ct := tgs[i/len(families)], families[i%len(families)]
		jobs[i] = func() {
			opt := crashmc.ConcOptions{
				Torn: true, TornSeed: 0xDECAF,
				MaxSchedules: budget,
			}
			if cfg.Scale < 1 {
				// Scaled-down smoke: two variant schedules per family and a
				// sampled baseline sweep. Conflict counts and pruning come
				// from the recording, so they match the full run exactly.
				opt.MaxSchedules = 2
				opt.MaxBoundaries = cfg.ops(200)
			}
			reps[i], errs[i] = crashmc.EnumerateConc(tg, ct, opt)
		}
	}
	runJobs(cfg, jobs)

	conc := &Table{
		ID: "crashmc-concurrent",
		Title: fmt.Sprintf("concurrent families (seed %d): DPOR-reduced schedule enumeration, "+
			"recovery verified at every schedule × boundary", seed),
		Columns: []string{"allocator", "family", "candidates", "conflicts",
			"schedules_run", "schedules_planned", "naive", "pruning",
			"boundaries", "torn", "violations"},
	}
	for i := range reps {
		tg, ct := tgs[i/len(families)], families[i%len(families)]
		if errs[i] != nil {
			conc.Rows = append(conc.Rows, []string{tg.Name, ct.Name,
				"enumeration failed: " + errs[i].Error(), "", "", "", "", "", "", "", ""})
			bl.refuse("%s/%s: enumeration failed: %v", tg.Name, ct.Name, errs[i])
			continue
		}
		rep := reps[i]
		bl.Conc = append(bl.Conc, rep)
		if rep.ViolationCount > 0 {
			bl.refuse("%s/%s: %d oracle violations", tg.Name, ct.Name, rep.ViolationCount)
		}
		conc.Rows = append(conc.Rows, []string{
			tg.Name, ct.Name,
			fmt.Sprint(rep.Candidates),
			fmt.Sprint(rep.Conflicts),
			fmt.Sprint(rep.SchedulesRun),
			fmt.Sprint(rep.PlannedSchedules),
			fmt.Sprint(rep.NaiveSchedules),
			pct(rep.Pruning()),
			fmt.Sprint(rep.BoundariesVerified),
			fmt.Sprint(rep.TornVerified),
			fmt.Sprint(rep.ViolationCount),
		})
		for _, v := range rep.Violations {
			conc.Rows = append(conc.Rows, []string{"", "  " + v.String(),
				"", "", "", "", "", "", "", "", ""})
		}
	}
	return conc
}

// crashBaseline mirrors crashmc_baseline.json. The serial fields are the
// PR 5 schema; "concurrent" is the schedule-aware extension: per-family
// conflict floors (conflict detection is deterministic for a fixed seed,
// so the floor is the measured minimum across targets), a pruning floor
// of 50% of the naive schedule space, and zero violations across every
// executed schedule.
type crashBaseline struct {
	Comment               string              `json:"comment"`
	RequireCoverage       float64             `json:"require_coverage"`
	RequireZeroViolations bool                `json:"require_zero_violations"`
	MinBoundaries         map[string]int      `json:"min_boundaries"`
	RequiredTornClasses   map[string][]string `json:"required_torn_classes"`
	Concurrent            *concBaseline       `json:"concurrent,omitempty"`
	FenceElision          *fenceBaseline      `json:"fence_elision,omitempty"`
	WriteBack             *writeBackBaseline  `json:"write_back,omitempty"`
	Publish               *publishBaseline    `json:"publish,omitempty"`
	Compaction            *compactionBaseline `json:"compaction,omitempty"`
}

// compactionBaseline gates the compaction family: floors (~70% of the
// measured counts) on its boundaries, on those at which the log is over
// its threshold and on the second-crash cuts inside the recoveries that
// compact it; the trace must still compact at run time from both threads.
type compactionBaseline struct {
	MinBoundaries         int `json:"min_boundaries"`
	MinOverThreshold      int `json:"min_over_threshold"`
	MinRuntimeCompactions int `json:"min_runtime_compactions"`
	MinRecoveryCuts       int `json:"min_recovery_cuts"`
}

// publishBaseline gates the publish family like writeBackBaseline gates
// its own: floors (~70% of the measured counts) on boundaries and
// recovery cuts, and on each kind of event the trace must still drive.
type publishBaseline struct {
	MinBoundaries      int `json:"min_boundaries"`
	MinCheckpointMoves int `json:"min_checkpoint_moves"`
	MinMorphs          int `json:"min_morphs"`
	MinReplaces        int `json:"min_replaces"`
	MinCrossArena      int `json:"min_cross_arena"`
	MinRepublished     int `json:"min_republished"`
	MinExtents         int `json:"min_extents"`
	MinRecoveryCuts    int `json:"min_recovery_cuts"`
	MinCacheCuts       int `json:"min_cache_cuts"`
}

// writeBackBaseline gates the write-back family: floors (~70% of the
// measured counts) on its boundaries, on the checkpoint moves its trace
// drives, on the second-crash cuts inside recovery and on the cache-image
// cuts, plus the two events the trace must still reach. Coverage and zero violations are
// inherited from the top level.
type writeBackBaseline struct {
	MinBoundaries       int `json:"min_boundaries"`
	MinCheckpointMoves  int `json:"min_checkpoint_moves"`
	MinMorphs           int `json:"min_morphs"`
	MinForeignReformats int `json:"min_foreign_reformats"`
	MinRecoveryCuts     int `json:"min_recovery_cuts"`
	MinCacheCuts        int `json:"min_cache_cuts"`
}

// fenceBaseline gates the fence-elision family: a boundary floor for the
// dedicated trace plus the requirement that both at-risk line classes
// (wal-entry, bitmap-stripe) were explored clean and torn. Coverage and
// zero-violation requirements are inherited from the top level.
type fenceBaseline struct {
	MinBoundaries       int      `json:"min_boundaries"`
	RequireClassesClean []string `json:"require_classes_clean"`
	RequireClassesTorn  []string `json:"require_classes_torn"`
}

type concBaseline struct {
	RequireZeroViolations bool           `json:"require_zero_violations"`
	MinPruning            float64        `json:"min_pruning"`
	MinSchedulesRun       int            `json:"min_schedules_run"`
	MinConflicts          map[string]int `json:"min_conflicts"`
}

// baselineBuild accumulates one run's measurements for -crashmc.update,
// plus the reasons (if any) the regeneration must be refused.
type baselineBuild struct {
	Boundaries      map[string]int
	TornClasses     map[string][]string
	Conc            []*crashmc.ConcReport
	FenceBoundaries int
	WriteBack       *writeBackBaseline
	Publish         *publishBaseline
	Compaction      *compactionBaseline
	Refusals        []string
}

func (b *baselineBuild) refuse(format string, args ...any) {
	b.Refusals = append(b.Refusals, fmt.Sprintf(format, args...))
}

// write regenerates the baseline file from this run, or refuses loudly:
// a baseline snapshotted from a sampled, failed, or violating run would
// codify the regression it is meant to catch.
func (b *baselineBuild) write(path string) {
	if len(b.Refusals) > 0 {
		fmt.Fprintf(os.Stderr, "crashmc: refusing to update %s:\n", path)
		for _, r := range b.Refusals {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return
	}
	doc := crashBaseline{
		Comment: "Crash-point model-checker coverage baseline. CI fails if nvbench -exp crashmc " +
			"reports fewer boundaries than min_boundaries (floors ~70% of the measured smoke-trace " +
			"counts, absorbing geometry drift), less than 100% coverage, any violation, a missing " +
			"required torn line class, or — for the concurrent families — fewer conflicting pairs " +
			"than min_conflicts, DPOR pruning below min_pruning, or any schedule-variant violation. " +
			"The fence_elision section gates the dedicated merged-fence trace family: boundary " +
			"floor, 100% coverage, zero violations, and both at-risk line classes (wal-entry, " +
			"bitmap-stripe) explored clean and torn. The write_back section gates the family recorded " +
			"on the minimum WAL ring: boundary, checkpoint-move and recovery-cut floors, and a trace that " +
			"still morphs a slab and has one arena format a base the other released. The publish section " +
			"gates the reserve-fill-publish family on the same ring, held to the live-set oracle: the same " +
			"floors plus one per kind of publish the trace must still drive (replaces, cross-arena and " +
			"republished old blocks, extents). Both sections also floor cache_cuts: recoveries from the " +
			"cache image after each flush of the trace's operations (a killed process, not a power cut). " +
			"The compaction section gates the family whose recoveries " +
			"compact the bookkeeping log: boundary, over-threshold-boundary and recovery-cut floors and " +
			"two compactions at run time. " +
			"Regenerate with: go run ./cmd/nvbench -exp crashmc -crashmc.update",
		RequireCoverage:       1.0,
		RequireZeroViolations: true,
		MinBoundaries:         map[string]int{},
		RequiredTornClasses:   map[string][]string{},
	}
	for name, n := range b.Boundaries {
		// ~70% of measured, rounded down to a multiple of 10.
		doc.MinBoundaries[name] = n * 7 / 10 / 10 * 10
	}
	for name, classes := range b.TornClasses {
		// Only the NVAlloc targets carry torn-class requirements: the
		// baseline-model allocators' line classes are emulation details.
		if len(name) >= 7 && name[:7] == "NVAlloc" {
			doc.RequiredTornClasses[name] = classes
		}
	}
	if len(b.Conc) > 0 {
		cb := &concBaseline{
			RequireZeroViolations: true,
			MinPruning:            0.5,
			MinSchedulesRun:       1,
			MinConflicts:          map[string]int{},
		}
		for _, rep := range b.Conc {
			// Per-family floor: the minimum conflict count across targets.
			if cur, ok := cb.MinConflicts[rep.Trace]; !ok || rep.Conflicts < cur {
				cb.MinConflicts[rep.Trace] = rep.Conflicts
			}
		}
		doc.Concurrent = cb
	}
	if b.FenceBoundaries > 0 {
		doc.FenceElision = &fenceBaseline{
			MinBoundaries:       b.FenceBoundaries * 7 / 10 / 10 * 10,
			RequireClassesClean: []string{"bitmap-stripe", "wal-entry"},
			RequireClassesTorn:  []string{"bitmap-stripe", "wal-entry"},
		}
	}
	doc.WriteBack = b.WriteBack
	doc.Publish = b.Publish
	doc.Compaction = b.Compaction
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashmc: encoding baseline: %v\n", err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "crashmc: writing baseline: %v\n", err)
		return
	}
	fmt.Printf("  regenerated %s\n", path)
}
