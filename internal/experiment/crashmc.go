package experiment

import (
	"fmt"
	"sort"

	"nvalloc/internal/crashmc"
)

func init() {
	register("crashmc", runCrashMC)
}

// runCrashMC runs the crash-point model checker: every family of
// crashmc.Families (the table in DESIGN.md §7 "Verification") with every
// cut the table's one rule gives it — the raced ones under every planned
// DPOR-reduced preemptive schedule — verification fanned out over the
// experiment worker pool.
//
// A run at scale >= 1 enumerates, and the last table's Failures make
// nvbench exit non-zero on what gateCrashMC finds; a row's counts are held
// by its committed CSV (results/crashmc_table*.csv), which CI diffs. A
// scaled-down run samples and is not gated.
func runCrashMC(cfg Config) []*Table {
	const seed = 42
	fams, tables, failed := runCrashMCFamilies(cfg, seed)
	if cfg.Scale >= 1 {
		tables[len(tables)-1].Failures = gateCrashMC(fams, failed)
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

// gateCrashMC returns what fails an enumerating run: each recording that
// failed, and for every row that recorded, power-cut coverage under 100 %,
// any oracle violation, and each shape counter under its family's Min.
func gateCrashMC(fams []*crashmc.FamilyReport, failed []string) []string {
	for _, r := range fams {
		regress := func(format string, args ...any) {
			failed = append(failed, r.Target+"/"+r.Family+": "+fmt.Sprintf(format, args...))
		}
		if r.Sweep.Explored < r.Sweep.Boundaries {
			regress("coverage %d/%d < 100%%", r.Sweep.Explored, r.Sweep.Boundaries)
		}
		violations := 0
		for _, rep := range r.Reports() {
			violations += rep.ViolationCount
		}
		if violations > 0 {
			regress("%d oracle violations", violations)
		}
		for _, f := range r.ShapeFailures() {
			regress("trace shape: %s", f)
		}
	}
	return failed
}
