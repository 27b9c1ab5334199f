package experiment

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
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
// cut the table's one rule gives it — the raced ones under DPOR-reduced
// preemptive schedules — verification fanned out over the experiment
// worker pool.
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
	fams, tables, failed := runCrashMCFamilies(cfg, seed)
	update := cfg.CrashMCBaselineOut != ""
	if cfg.Scale < 1 && !update {
		return tables
	}
	var base *crashBaseline
	if update {
		base = newCrashBaseline(fams)
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
		last.Notes, last.Failures = gateCrashMC(fams, base)
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
// shape counters, recovery_cuts where the family has windows, cache_cuts
// and flip_cuts with how many of them recovery detected where its trace is
// not raced, and violations. The smoke family's own table is followed by
// its explored boundaries by in-flight line class and by the recovery paths
// (trace phase × line class) it drove. failed lists the runs that did not
// record.
func runCrashMCFamilies(cfg Config, seed uint64) (reps []*crashmc.FamilyReport, tables []*Table, failed []string) {
	full := crashmc.RunOptions{Config: crashmc.Config{TornSeed: 0xDECAF, CheckEvery: 64, Pool: cfg.RunCells},
		MaxSchedules: cfg.CrashMCSchedBudget}
	switch {
	case full.MaxSchedules == 0:
		full.MaxSchedules = 6 // the PR-smoke default: bounded, still more than one pair's preemptions
	case full.MaxSchedules < 0:
		full.MaxSchedules = 0 // every planned schedule (the nightly run)
	}
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
			every, rest := "every boundary", "a cache-image cut after each that is a flush of its operations, a flip cut at each"
			if f.MaxBoundaries > 0 {
				every = fmt.Sprintf("up to %d boundaries at one stride", f.MaxBoundaries)
			}
			if len(f.Trace.Raced) > 0 {
				every, rest = "every boundary of the round-robin schedule", "and of the disturbed window "+
					"and final boundary of each DPOR variant schedule"
			}
			tab = &Table{ID: "crashmc-" + f.Name, Title: fmt.Sprintf("%s family (seed %d): %s + torn variants, %s",
				f.Name, seed, every, rest)}
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
			opt.MaxBoundaries, opt.MaxSchedules = cfg.ops(200), 2
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

// crashBaseline mirrors crashmc_baseline.json. Rows holds, for every row
// of every family table, by "allocator/family", its floors: "min_<column>":
// n is the least that column of the row may read. RequiredTornClasses
// lists the torn line classes each NVAlloc variant's smoke sweep must
// reach.
type crashBaseline struct {
	Comment               string                    `json:"comment"`
	RequireCoverage       float64                   `json:"require_coverage"`
	RequireZeroViolations bool                      `json:"require_zero_violations"`
	Rows                  map[string]map[string]int `json:"rows"`
	RequiredTornClasses   map[string][]string       `json:"required_torn_classes"`
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
// line classes; and every row the baseline names must be in the run. It
// returns a verdict line per row and the regressions.
func gateCrashMC(fams []*crashmc.FamilyReport, base *crashBaseline) (verdict, regressions []string) {
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
	return verdict, regressions
}

// newCrashBaseline snapshots a run: boundary and cut floors at ~70% of the
// measured counts, rounded down to a multiple of 10 (absorbing geometry
// drift) — or, for a count under 15, at the count: each of a row's few
// recovery cuts is a case it exists for; a raced row's conflicts at
// the measured count, which the recording alone decides; a floor of ~70%,
// and at least 1, under every other shape counter the family gates and
// under the flip cuts recovery detected, where it did — flips that stop
// reaching anything checksummed test nothing; and the torn classes each
// NVAlloc smoke sweep reached (the baseline-model allocators' line classes
// are emulation details). Snapshot a run at the default schedule budget:
// the raced rows' boundaries and schedules_run floors follow it.
func newCrashBaseline(fams []*crashmc.FamilyReport) *crashBaseline {
	doc := &crashBaseline{
		Comment: "Crash-point model-checker coverage baseline: floors under the tables of nvbench -exp crashmc, " +
			"which fails on a column under its floor, min_COLUMN (~70% of the measured count, absorbing geometry " +
			"drift; a raced row's conflicts exactly), less than 100% coverage, any violation, a shape counter " +
			"under the family's own minimum (a raced row's DPOR pruning under half the naive schedules among " +
			"them), a missing required torn line class, or a missing row. rows is keyed by allocator/family, the " +
			"families — the raced ones too — being those of the table in DESIGN.md §7 \"Verification\". " +
			"Regenerate with: go run ./cmd/nvbench -exp crashmc -crashmc.update",
		RequireCoverage:       1.0,
		RequireZeroViolations: true,
		Rows:                  map[string]map[string]int{},
		RequiredTornClasses:   map[string][]string{},
	}
	for _, r := range fams {
		floors := map[string]int{}
		for _, c := range r.Counters() {
			switch {
			case c.Name == "conflicts":
				floors["min_"+c.Name] = c.N
			case c.Name == "boundaries" || strings.HasSuffix(c.Name, "_cuts"):
				floors["min_"+c.Name] = c.N * 7 / 10 / 10 * 10
				if c.N < 15 {
					floors["min_"+c.Name] = c.N
				}
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
