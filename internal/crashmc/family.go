package crashmc

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
)

// Family is one row of the model checker's table of families. Every family
// checks the same property — recovery leaves the heap the application's
// reachable set describes — so families differ in data, not in code. Run
// applies one rule for cuts to all of them: a clean and a torn power cut at
// every boundary the family has, a cache-image cut after each of those that
// is a flush of the span's operations, a flip cut at each from CreatedAt
// on, and the double-crash cut at the family's windows, if it names any.
// A family whose trace is raced records it round robin instead and adds
// the power cuts of every variant schedule the DPOR reduction plans
// (raceSchedules); it takes no cache-image or flip cut, which would need
// the trace run again under each schedule.
type Family struct {
	Name   string
	Target Target
	Trace  Trace
	// Probe, when non-nil, is sampled after every op (RecordOptions.Probe)
	// for Span, Windows and Shape to read.
	Probe func(h alloc.Heap) uint64
	// Oracle, when non-nil, builds from the recording what the recovered
	// heap is held to beyond the shared oracle (Config.Extra).
	Oracle func(rec *Recording) func(h alloc.Heap, boundary int, torn bool) []string
	// Span, when non-nil, bounds the boundaries the family enumerates
	// (inclusive); nil is the whole recording.
	Span func(rec *Recording) (from, to int)
	// MaxBoundaries, when > 0, strides over the span so that the family has
	// at most that many boundaries: a trace too long to cut everywhere.
	MaxBoundaries int
	// Windows, when non-nil, lists the boundaries whose recoveries have
	// the work the family is about, for the double-crash cut.
	Windows func(rec *Recording) []int
	// Shape, when non-nil, counts the events the family exists to put
	// boundaries around, in the order its table shows them; it sees the
	// power-cut sweep's report besides the recording. A raced family's
	// shape is its schedule space's (RaceShape).
	Shape func(rec *Recording, sweep *Report) []Counter
}

// Counter is one named count of a family report.
type Counter struct {
	Name string
	N    int
	// Min, when > 0, is the count below which the family's coverage
	// argument no longer holds: a run with fewer fails, sampled or not
	// (FamilyReport.ShapeFailures), and the coverage baseline floors the
	// counter. Zero: the counter is only reported.
	Min int
}

// Families returns the table, in report order: the smoke trace on every
// allocator, then NVAlloc-LOG's dedicated families, then a slab morph on
// each NVAlloc variant, then the deep trace on every allocator, then each
// raced trace on NVAlloc-LOG and -GC (IC shares LOG's code paths for all
// three; the baselines have no concurrent machinery). seed seeds the
// smoke, fence-elision and raced traces; the others are hand-built.
func Families(seed uint64) []Family {
	var fs []Family
	for _, tg := range Targets() {
		fs = append(fs, Family{Name: "smoke", Target: tg, Trace: SmokeTrace(seed), Shape: smokeShape})
	}
	fs = append(fs,
		Family{Name: "fence-elision", Target: VariantTarget(core.LOG), Trace: FenceElisionTrace(seed),
			Shape: fenceElisionShape},
		Family{Name: "write-back", Target: WriteBackTarget(), Trace: WriteBackTrace(), Probe: morphCount,
			Windows: (*Recording).WriteBackStarts, Shape: writeBackShape},
		Family{Name: "publish", Target: WriteBackTarget(), Trace: PublishTrace(), Probe: morphCount,
			Oracle: LiveSetOracle, Windows: (*Recording).PublishWindows, Shape: publishShape},
		Family{Name: "compaction", Target: CompactionTarget(), Trace: CompactionTrace(), Probe: compactionProbe,
			Oracle: LiveSetOracle, Windows: (*Recording).CompactionWindows, Shape: compactionShape},
	)
	for _, v := range []core.Variant{core.LOG, core.GC, core.IC} {
		fs = append(fs, Family{Name: "morph", Target: morphTarget(v), Trace: morphTrace(), Probe: morphCount,
			Span: morphSpan, Shape: morphShape})
	}
	for _, tg := range Targets() {
		fs = append(fs, Family{Name: "deep", Target: tg, Trace: SweepTrace(4000), MaxBoundaries: 200})
	}
	for _, tr := range racedTraces(seed) {
		for _, v := range []core.Variant{core.LOG, core.GC} {
			fs = append(fs, Family{Name: tr.Name, Target: VariantTarget(v), Trace: tr})
		}
	}
	return fs
}

// smokeShape reports the distinct recovery paths the sweep drove and the
// offline checker runs it made; neither is floored.
func smokeShape(_ *Recording, sweep *Report) []Counter {
	return []Counter{{Name: "paths", N: len(sweep.Paths)}, {Name: "checks", N: sweep.Checks}}
}

// fenceElisionShape is the family's proof obligation beyond "no
// violations": the enumeration landed inside the windows the merged fences
// opened, so both at-risk line classes were explored clean AND torn. A
// refactor that reordered the flushes, or a trace that stopped reaching
// the batched drain, trips these floors while the oracle stays green.
func fenceElisionShape(_ *Recording, sweep *Report) []Counter {
	return []Counter{
		{Name: "wal_clean", N: sweep.Classes["wal-entry"], Min: 1},
		{Name: "wal_torn", N: sweep.TornClasses["wal-entry"], Min: 1},
		{Name: "bitmap_clean", N: sweep.Classes["bitmap-stripe"], Min: 1},
		{Name: "bitmap_torn", N: sweep.TornClasses["bitmap-stripe"], Min: 1},
	}
}

// RunOptions scales a family run down; the zero value takes every cut.
type RunOptions struct {
	// Config's TornSeed, CheckEvery and MaxBoundaries apply to the power-cut
	// sweep, its Pool to every sweep of the run; From, To and Extra are the
	// family's.
	Config
	// Windows, Flushes and Flips thin the double-crash cut's windows, the
	// cache-image cut's flushes and the flip cut's boundaries (Every, Last;
	// nil takes them all).
	Windows, Flushes, Flips func(ks []int) []int
	// MaxSchedules caps the variant schedules a raced family runs (<= 0:
	// every planned one). Its shape counts the planned ones, so a capped
	// run still says how many it left out.
	MaxSchedules int
}

// FamilyReport is one family run: a report per kind of cut and what the
// recording held. It does not keep the recording, whose device images are
// what a run costs in memory.
type FamilyReport struct {
	Family, Target string
	// Sweep is the power-cut report (clean and torn; a raced family's
	// merges its variant schedules'), Cache the cache-image cut's and Flip
	// the flip cut's — nil for a raced family — and Recovery the
	// double-crash cut's: nil for a family without windows.
	Sweep, Recovery, Cache, Flip *Report
	Shape                        []Counter
	// Windows is how many windows the double-crash cut took, Ops and
	// FailedOps how many ops the trace ran and how many returned an error.
	Windows, Ops, FailedOps int
}

// Run records the family's trace on its target and takes every kind of cut
// the table's one rule gives it.
func (f Family) Run(opt RunOptions) (*FamilyReport, error) {
	var rec *Recording
	var raced *ConcRecording
	var err error
	if len(f.Trace.Raced) > 0 {
		if raced, err = ConcRecord(f.Target, f.Trace, Schedule{}, RecordOptions{Probe: f.Probe}); err == nil {
			rec = raced.Recording
		}
	} else {
		rec, err = Record(f.Target, f.Trace, RecordOptions{Probe: f.Probe})
	}
	if err != nil {
		return nil, err
	}
	cfg := opt.Config
	if f.Oracle != nil {
		cfg.Extra = f.Oracle(rec)
	}
	if f.Span != nil {
		cfg.From, cfg.To = f.Span(rec)
	}
	rep := &FamilyReport{Family: f.Name, Target: f.Target.Name, Ops: len(rec.Ops)}
	for _, or := range rec.Ops {
		if or.Err {
			rep.FailedOps++
		}
	}
	// The boundaries the family has: its span, strided if it says so.
	span := cfg.withDefaults(rec)
	span.MaxBoundaries = f.MaxBoundaries
	ks := span.strided(span.boundaries())
	rep.Sweep = Sweep(rec, PowerCut, ks, cfg)
	if raced != nil {
		if rep.Shape, err = raceSchedules(raced, cfg, opt.MaxSchedules, rep.Sweep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	thin := func(by func([]int) []int, ks []int) []int {
		if by != nil {
			ks = by(ks)
		}
		return ks
	}
	cuts := Config{Pool: cfg.Pool, Extra: cfg.Extra, TornSeed: cfg.TornSeed}
	if f.Windows != nil {
		ks := thin(opt.Windows, f.Windows(rec))
		rep.Windows = len(ks)
		rep.Recovery = Sweep(rec, RecoveryCut, ks, cuts)
	}
	// The cache-image cuts there are: those of the family's boundaries that
	// are flushes of the span's operations, from the end of Create to the
	// start of shutdown.
	var flushes []int
	for _, k := range ks {
		if k > max(rec.CreatedAt, span.From) && k <= rec.CloseStart {
			flushes = append(flushes, k)
		}
	}
	rep.Cache = Sweep(rec, CacheCut, thin(opt.Flushes, flushes), cuts)
	rep.Flip = Sweep(rec, FlipCut, thin(opt.Flips, ks), cuts)
	if f.Shape != nil {
		rep.Shape = f.Shape(rec, rep.Sweep)
	}
	return rep, nil
}

// Reports returns the run's reports, one per kind of cut taken.
func (r *FamilyReport) Reports() []*Report {
	reps := []*Report{r.Sweep}
	for _, rep := range []*Report{r.Recovery, r.Cache, r.Flip} {
		if rep != nil {
			reps = append(reps, rep)
		}
	}
	return reps
}

// Counters returns everything the run counted, in table order: the
// power-cut sweep's coverage, the shape counters, the cuts of the other
// kinds, the flip cuts recovery refused, and the violations of all.
func (r *FamilyReport) Counters() []Counter {
	cs := []Counter{
		{Name: "boundaries", N: r.Sweep.Boundaries},
		{Name: "explored", N: r.Sweep.Explored},
		{Name: "torn", N: r.Sweep.TornExplored},
	}
	cs = append(cs, r.Shape...)
	if r.Recovery != nil {
		cs = append(cs, Counter{Name: "recovery_cuts", N: r.Recovery.Explored})
	}
	if r.Cache != nil {
		cs = append(cs, Counter{Name: "cache_cuts", N: r.Cache.Explored})
	}
	if r.Flip != nil {
		cs = append(cs, Counter{Name: "flip_cuts", N: r.Flip.Explored}, Counter{Name: "detected", N: r.Flip.Detected})
	}
	violations := 0
	for _, rep := range r.Reports() {
		violations += rep.ViolationCount
	}
	return append(cs, Counter{Name: "violations", N: violations})
}

// ShapeFailures names every shape counter under its Min: an event the
// trace or the geometry no longer produces, which must fail the run
// rather than thin its coverage silently.
func (r *FamilyReport) ShapeFailures() []string {
	var out []string
	for _, c := range r.Shape {
		if c.N < c.Min {
			out = append(out, fmt.Sprintf("%s = %d, the family needs >= %d", c.Name, c.N, c.Min))
		}
	}
	return out
}
