package experiment

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"nvalloc/internal/crashmc"
)

func init() {
	register("crashmc", runCrashMC)
}

// crashMCBaselineFile is the committed coverage baseline, in the directory
// nvbench runs from (the repository root, in CI): the gate's input, and
// what -crashmc.update regenerates.
const crashMCBaselineFile = "crashmc_baseline.json"

// runCrashMC runs the crash-point model checker: every family of
// crashmc.Families (the table in DESIGN.md §7 "Verification") with every
// cut the table's one rule gives it, and the concurrent families under
// DPOR-reduced preemptive schedules, verification fanned out over the
// experiment worker pool.
//
// A run at scale >= 1 enumerates, and is held to the committed baseline:
// the last table carries the gate's verdict lines, and its Failures make
// nvbench exit non-zero. A scaled-down run samples and is not gated. With
// cfg.CrashMCBaselineOut set the baseline is regenerated from the run
// instead — unless the run fails the gate against its own floors (a failed
// recording, a violation, a lost shape event) or sampled: a baseline
// snapshotted from such a run would codify the regression it is meant to
// catch.
func runCrashMC(cfg Config) []*Table {
	const seed = 42
	fams, famTabs, failed := runCrashMCFamilies(cfg, seed)
	conc, concTab, concFailed := runCrashMCConc(cfg, seed)
	tables := append(append(famTabs[:3:3], concTab), famTabs[3:]...)
	failed = append(failed, concFailed...)
	update := cfg.CrashMCBaselineOut != ""
	if cfg.Scale < 1 && !update {
		return tables
	}
	var base *crashBaseline
	if update {
		base = newCrashBaseline(fams, conc)
		if cfg.Scale < 1 {
			failed = append(failed, "the run sampled: run with -scale >= 1 to enumerate")
		}
	} else if b, err := loadCrashBaseline(crashMCBaselineFile); err != nil {
		failed = append(failed, err.Error())
	} else {
		base = b
	}
	last := tables[len(tables)-1]
	if base != nil {
		last.Notes, last.Failures = gateCrashMC(fams, conc, base)
		last.Notes = append([]string{"the run against the floors of " + crashMCBaselineFile + ":"}, last.Notes...)
	}
	last.Failures = append(last.Failures, failed...)
	if update {
		base.write(cfg.CrashMCBaselineOut, last.Failures)
	}
	return tables
}

// note adds a row of prose under a table's last row.
func (t *Table) note(text string) {
	t.Rows = append(t.Rows, append([]string{"", "  " + text}, make([]string, max(len(t.Columns), 2)-2)...))
}

// runCrashMCFamilies runs every family of the table and builds one table
// per family name, in table order, from what the reports count: the
// columns are allocator, the power-cut sweep's coverage, the family's
// shape counters, recovery_cuts where the family has windows, cache_cuts,
// flip_cuts with how many of them recovery detected, and violations. The
// smoke family's own table is followed by its explored boundaries by
// in-flight line class and by the recovery paths (trace phase × line
// class) it drove. failed lists the runs that did not record.
func runCrashMCFamilies(cfg Config, seed uint64) (reps []*crashmc.FamilyReport, tables []*Table, failed []string) {
	full := crashmc.RunOptions{Config: crashmc.Config{TornSeed: 0xDECAF, CheckEvery: 64, Pool: cfg.RunCells}}
	classes := &Table{
		ID:      "crashmc-classes",
		Title:   "smoke trace: explored boundaries by in-flight line class (clean/torn counts)",
		Columns: []string{"allocator", "class", "clean", "torn"},
	}
	paths := &Table{
		ID:      "crashmc-paths",
		Title:   "smoke trace: distinct recovery paths driven (trace phase × in-flight line class), all allocators",
		Columns: []string{"path", "boundaries"},
	}
	pathAgg := map[string]int{}
	byName := map[string]*Table{}
	for _, f := range crashmc.Families(seed) {
		tab := byName[f.Name]
		if tab == nil {
			every := "every boundary"
			if f.MaxBoundaries > 0 {
				every = fmt.Sprintf("up to %d boundaries at one stride", f.MaxBoundaries)
			}
			tab = &Table{ID: "crashmc-" + f.Name, Title: fmt.Sprintf("%s family (seed %d): %s + torn variants, "+
				"a cache-image cut after each that is a flush of its operations, a flip cut at each",
				f.Name, seed, every)}
			if f.Windows != nil {
				tab.Title += ", a second crash after every flush of recovery in its windows"
			}
			if f.Name == "smoke" {
				tab.ID = "crashmc" // the head table
			}
			byName[f.Name] = tab
			tables = append(tables, tab)
		}
		opt := full
		if cfg.Scale < 1 {
			// Scaled-down runs (the micro-scale smoke test) sample the
			// boundary space instead of enumerating it; -exp crashmc at the
			// default scale stays exhaustive.
			opt.MaxBoundaries = cfg.ops(200)
			opt.Windows, opt.Flushes, opt.Flips = crashmc.Every(50), crashmc.Every(50), crashmc.Every(50)
			switch f.Name {
			case "smoke":
				opt.MaxBoundaries = cfg.ops(750)
			case "write-back":
				// The last window's recovery starts from rings the whole
				// trace filled: the one with the most to write back.
				opt.Windows = crashmc.Last(1)
			}
		}
		rep, err := f.Run(opt)
		if err != nil {
			tab.Rows = append(tab.Rows, []string{f.Target.Name})
			tab.note("record failed: " + err.Error())
			failed = append(failed, fmt.Sprintf("%s/%s: record failed: %v", f.Target.Name, f.Name, err))
			continue
		}
		reps = append(reps, rep)
		cols, row := []string{"allocator"}, []string{rep.Target}
		for _, c := range rep.Counters() {
			cols, row = append(cols, c.Name), append(row, fmt.Sprint(c.N))
			if c.Name == "explored" {
				cols, row = append(cols, "coverage"), append(row, pct(rep.Sweep.Coverage()))
			}
		}
		tab.Columns, tab.Rows = cols, append(tab.Rows, row)
		for _, r := range rep.Reports() {
			for _, v := range r.Violations {
				tab.note(v.String()) // violations are a CI failure; surface them in the text output
			}
		}
		if f.Name != "smoke" {
			continue
		}
		for _, cl := range sortedKeys(rep.Sweep.Classes) {
			classes.Rows = append(classes.Rows, []string{rep.Target, cl,
				fmt.Sprint(rep.Sweep.Classes[cl]), fmt.Sprint(rep.Sweep.TornClasses[cl])})
		}
		for p, n := range rep.Sweep.Paths {
			pathAgg[p] += n
		}
	}
	for _, p := range sortedKeys(pathAgg) {
		paths.Rows = append(paths.Rows, []string{p, fmt.Sprint(pathAgg[p])})
	}
	return reps, append([]*Table{tables[0], classes, paths}, tables[1:]...), failed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
// schedule × boundary space. They take clean and torn power cuts only: a
// cache-image cut would need the trace run again under its schedule.
func runCrashMCConc(cfg Config, seed uint64) (reps []*crashmc.ConcReport, conc *Table, failed []string) {
	opt := crashmc.ConcOptions{Torn: true, TornSeed: 0xDECAF, MaxSchedules: cfg.CrashMCSchedBudget}
	switch {
	case cfg.Scale < 1:
		// Scaled-down smoke: two variant schedules per family and a
		// sampled baseline sweep. Conflict counts and pruning come
		// from the recording, so they match the full run exactly.
		opt.MaxSchedules, opt.MaxBoundaries = 2, cfg.ops(200)
	case opt.MaxSchedules == 0:
		opt.MaxSchedules = 6 // the PR-smoke default: bounded, still more than one pair's preemptions
	case opt.MaxSchedules < 0:
		opt.MaxSchedules = 0 // ConcOptions: <= 0 means uncapped (the nightly run)
	}
	type cell struct {
		tg  crashmc.Target
		ct  crashmc.ConcTrace
		rep *crashmc.ConcReport
		err error
	}
	var cells []*cell
	for _, tg := range crashmc.Targets() {
		for _, ct := range crashmc.ConcFamilies(seed) {
			if slices.Contains(concTargetNames, tg.Name) {
				cells = append(cells, &cell{tg: tg, ct: ct})
			}
		}
	}
	runCells(cfg, len(cells), func(i int) {
		c := cells[i]
		c.rep, c.err = crashmc.EnumerateConc(c.tg, c.ct, opt)
	})

	conc = &Table{
		ID: "crashmc-concurrent",
		Title: fmt.Sprintf("concurrent families (seed %d): DPOR-reduced schedule enumeration, "+
			"recovery verified at every schedule × boundary", seed),
		Columns: []string{"allocator", "family", "candidates", "conflicts",
			"schedules_run", "schedules_planned", "naive", "pruning",
			"boundaries", "torn", "violations"},
	}
	for _, c := range cells {
		if c.err != nil {
			conc.Rows = append(conc.Rows, []string{c.tg.Name, c.ct.Name})
			conc.note("enumeration failed: " + c.err.Error())
			failed = append(failed, fmt.Sprintf("%s/%s: enumeration failed: %v", c.tg.Name, c.ct.Name, c.err))
			continue
		}
		rep := c.rep
		reps = append(reps, rep)
		conc.Rows = append(conc.Rows, []string{
			rep.Target, rep.Trace,
			fmt.Sprint(rep.Candidates),
			fmt.Sprint(rep.Conflicts),
			fmt.Sprint(rep.SchedulesRun),
			fmt.Sprint(rep.PlannedSchedules),
			fmt.Sprint(rep.NaiveSchedules),
			pct(rep.Pruning()),
			fmt.Sprint(rep.Explored),
			fmt.Sprint(rep.TornExplored),
			fmt.Sprint(rep.ViolationCount),
		})
		for _, v := range rep.Violations {
			conc.note(v.String())
		}
	}
	return reps, conc, failed
}

// crashBaseline mirrors crashmc_baseline.json. Rows holds, for every row
// of every family table, by "allocator/family", its floors: "min_<column>":
// n is the least that column of the row may read. RequiredTornClasses
// lists the torn line classes each NVAlloc variant's smoke sweep must
// reach. "concurrent" holds per-family conflict floors (conflict detection
// is deterministic for a fixed seed, so the floor is the measured minimum
// across targets), a pruning floor of 50% of the naive schedule space, and
// zero violations across every executed schedule.
type crashBaseline struct {
	Comment               string                    `json:"comment"`
	RequireCoverage       float64                   `json:"require_coverage"`
	RequireZeroViolations bool                      `json:"require_zero_violations"`
	Rows                  map[string]map[string]int `json:"rows"`
	RequiredTornClasses   map[string][]string       `json:"required_torn_classes"`
	Concurrent            concBaseline              `json:"concurrent"`
}

type concBaseline struct {
	RequireZeroViolations bool           `json:"require_zero_violations"`
	MinPruning            float64        `json:"min_pruning"`
	MinSchedulesRun       int            `json:"min_schedules_run"`
	MinConflicts          map[string]int `json:"min_conflicts"`
}

func loadCrashBaseline(path string) (*crashBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("crashmc baseline: %w", err)
	}
	b := &crashBaseline{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("crashmc baseline %s: %w", path, err)
	}
	return b, nil
}

// gateCrashMC holds one run's reports to a baseline: for every family row,
// each min_<column> floor, full coverage of the power-cut sweep, zero
// violations, the family's own shape minima and (smoke) the required torn
// line classes; for every concurrent enumeration, the conflict floor of
// its family, the pruning and executed-schedule floors and zero
// violations; and every row or family the baseline names must be in the
// run. It returns a verdict line per row and the regressions.
func gateCrashMC(fams []*crashmc.FamilyReport, conc []*crashmc.ConcReport, base *crashBaseline) (verdict, regressions []string) {
	who := ""
	regress := func(format string, args ...any) {
		regressions = append(regressions, who+": "+fmt.Sprintf(format, args...))
	}
	rows := maps.Clone(base.Rows)
	for _, r := range fams {
		who = r.Target + "/" + r.Family
		floors, ok := rows[who]
		delete(rows, who)
		if !ok {
			regress("the baseline has no floors for it (regenerate with -crashmc.update)")
		}
		line, val, unmatched := who+":", map[string]int{}, len(floors)
		for _, c := range r.Counters() {
			val[c.Name] = c.N
			line += fmt.Sprintf(" %s %d", c.Name, c.N)
			if floor, ok := floors["min_"+c.Name]; ok {
				unmatched--
				line += fmt.Sprintf(" (floor %d)", floor)
				if c.N < floor {
					regress("%s %d < baseline floor %d", c.Name, c.N, floor)
				}
			}
		}
		verdict = append(verdict, line)
		if unmatched > 0 {
			regress("the baseline floors %d columns the report does not have", unmatched)
		}
		if float64(val["explored"]) < base.RequireCoverage*float64(val["boundaries"]) {
			regress("coverage %d/%d < %.0f%%", val["explored"], val["boundaries"], 100*base.RequireCoverage)
		}
		if val["violations"] > 0 && base.RequireZeroViolations {
			regress("%d oracle violations", val["violations"])
		}
		for _, f := range r.ShapeFailures() {
			regress("trace shape: %s", f)
		}
		var missing []string
		for _, cl := range base.RequiredTornClasses[r.Target] {
			if r.Family == "smoke" && r.Sweep.TornClasses[cl] == 0 {
				missing = append(missing, cl)
			}
		}
		if len(missing) > 0 {
			regress("torn sweep missed line classes %v", missing)
		}
	}
	for _, who = range sortedKeys(rows) {
		regress("missing from report")
	}

	cb := base.Concurrent
	absent := map[string]bool{}
	for family := range cb.MinConflicts {
		absent[family] = true
	}
	for _, r := range conc {
		who = r.Target + "/" + r.Trace
		delete(absent, r.Trace)
		floor, ok := cb.MinConflicts[r.Trace]
		verdict = append(verdict, fmt.Sprintf("%s: %d conflicts (floor %d), %d schedules, %.0f%% pruned, %d violations",
			who, r.Conflicts, floor, r.SchedulesRun, 100*r.Pruning(), r.ViolationCount))
		switch {
		case !ok:
			regress("the baseline has no conflict floor for it (regenerate with -crashmc.update)")
		case r.Conflicts < floor:
			regress("%d conflicting pairs < baseline floor %d", r.Conflicts, floor)
		}
		if r.SchedulesRun < cb.MinSchedulesRun {
			regress("only %d variant schedules executed", r.SchedulesRun)
		}
		if r.Pruning() < cb.MinPruning {
			regress("DPOR pruned %.0f%% of the naive schedule space < floor %.0f%%", 100*r.Pruning(), 100*cb.MinPruning)
		}
		if r.ViolationCount > 0 && cb.RequireZeroViolations {
			regress("%d oracle violations under variant schedules", r.ViolationCount)
		}
	}
	for _, who = range sortedKeys(absent) {
		regress("concurrent family missing from report")
	}
	return verdict, regressions
}

// newCrashBaseline snapshots a run: boundary and cut floors at ~70% of the
// measured counts, rounded down to a multiple of 10 (absorbing geometry
// drift); a floor of ~70%, and at least 1, under every shape counter the
// family gates and under the flip cuts recovery detected, where it did —
// flips that stop reaching anything checksummed test nothing; the torn
// classes each NVAlloc smoke sweep reached (the baseline-model allocators'
// line classes are emulation details); and per concurrent family the
// minimum conflict count across targets.
func newCrashBaseline(fams []*crashmc.FamilyReport, conc []*crashmc.ConcReport) *crashBaseline {
	doc := &crashBaseline{
		Comment: "Crash-point model-checker coverage baseline: floors under the tables of nvbench -exp crashmc, " +
			"which fails on a column under its floor, min_COLUMN (~70% of the measured count, absorbing geometry " +
			"drift), less than 100% coverage, any violation, a missing required torn line class, a missing family, " +
			"or — for the concurrent families — fewer conflicting pairs than min_conflicts, DPOR pruning below " +
			"min_pruning, or any schedule-variant violation. rows is keyed by allocator/family, the families being " +
			"those of the table in DESIGN.md §7 \"Verification\". " +
			"Regenerate with: go run ./cmd/nvbench -exp crashmc -crashmc.update",
		RequireCoverage:       1.0,
		RequireZeroViolations: true,
		Rows:                  map[string]map[string]int{},
		RequiredTornClasses:   map[string][]string{},
		Concurrent: concBaseline{RequireZeroViolations: true, MinPruning: 0.5, MinSchedulesRun: 1,
			MinConflicts: map[string]int{}},
	}
	for _, r := range fams {
		floors := map[string]int{}
		for _, c := range r.Counters() {
			switch {
			case c.Name == "boundaries" || strings.HasSuffix(c.Name, "_cuts"):
				floors["min_"+c.Name] = c.N * 7 / 10 / 10 * 10
			case c.Min > 0, c.Name == "detected" && c.N > 0:
				floors["min_"+c.Name] = max(1, c.N*7/10)
			}
		}
		doc.Rows[r.Target+"/"+r.Family] = floors
		for _, cl := range sortedKeys(r.Sweep.TornClasses) {
			if r.Family == "smoke" && strings.HasPrefix(r.Target, "NVAlloc") && r.Sweep.TornClasses[cl] > 0 {
				doc.RequiredTornClasses[r.Target] = append(doc.RequiredTornClasses[r.Target], cl)
			}
		}
	}
	for _, rep := range conc {
		if cur, ok := doc.Concurrent.MinConflicts[rep.Trace]; !ok || rep.Conflicts < cur {
			doc.Concurrent.MinConflicts[rep.Trace] = rep.Conflicts
		}
	}
	return doc
}

// write regenerates the baseline file, or refuses loudly when the run it
// was snapshotted from has failures.
func (b *crashBaseline) write(path string, failures []string) {
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "crashmc: refusing to update %s:\n  %s\n", path, strings.Join(failures, "\n  "))
		return
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashmc: writing baseline: %v\n", err)
		return
	}
	fmt.Printf("  regenerated %s\n", path)
}
