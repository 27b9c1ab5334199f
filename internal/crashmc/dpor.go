package crashmc

// The schedule enumerator with DPOR-style reduction. Exhaustively
// interleaving even two short threads at flush granularity is
// combinatorially hopeless; dynamic partial-order reduction observes
// that two schedules differing only in the order of *independent* ops
// reach the same persistent states, so only conflicting op pairs are
// worth reordering. Conflict is judged from the baseline recording's
// dynamic footprints: two cross-thread ops conflict iff their journaled
// flush deltas touch an overlapping cache line, or they acquired the
// same pmem.Resource (same shard, same arena lock — ordering through a
// lock changes who flushes what even when the line sets end up
// disjoint). For every conflicting pair the enumerator replays the
// trace under preemptive schedules that force the reversed order, and
// verifies recovery across the boundaries of the disturbed window. The
// pruned independent pairs are counted, so the coverage table can state
// exactly how much of the naive schedule space the reduction discarded.

import (
	"fmt"
	"sort"
	"strings"
)

// ConcOptions parameterizes EnumerateConc.
type ConcOptions struct {
	// MaxSchedules caps the executed variant schedules (<= 0: no cap).
	// ConcReport counts the planned ones, so a capped run still says how
	// many it left out.
	MaxSchedules int
	// Torn adds torn-line variants at every verified boundary.
	Torn     bool
	TornSeed uint64
	// MaxBoundaries samples the baseline sweep down to at most this many
	// boundaries (<= 0: enumerate every one). Conflict detection and the
	// pruning accounting read the recording, not the sweep, so sampling
	// the baseline never changes which schedules run.
	MaxBoundaries int
}

const (
	// pairGap is how close (in completion order) two cross-thread ops must
	// be to count as a reorder candidate. Ops further apart are separated
	// by full round-robin turns of intervening ops and their flush windows
	// do not interact.
	pairGap = 3
	// preemptsPerPair caps the preemption points tried per conflicting
	// pair, spread evenly over the earlier op's switchable yields.
	preemptsPerPair = 3
	// slack widens the verified boundary window around a reordered pair's
	// flush span, each side.
	slack = 8
)

// site names one scheduled op: thread t, op index j.
type site struct{ t, j int }

// conflictPair is one candidate reorder that the footprints proved
// dependent, with the schedules generated for it.
type conflictPair struct {
	a, b      site
	schedules []Schedule
}

// ConcReport aggregates one family's enumeration: the baseline full
// sweep plus every conflict-forced variant schedule.
type ConcReport struct {
	// Report merges the baseline sweep and every variant's: Explored and
	// TornExplored count the clean and torn images verified across all of
	// them. For variant schedules the phase strings of Paths join the
	// in-flight set, so conflict-pair interleavings show up as distinct
	// "kind+kind@class" paths.
	Report
	// Candidates is the naive reorder set (cross-thread op pairs within
	// pairGap); Conflicts is how many survived the footprint test.
	Candidates int
	Conflicts  int
	// NaiveSchedules is what a reduction-free enumerator would run
	// (Candidates x preemptsPerPair); PlannedSchedules is the post-DPOR
	// plan; SchedulesRun is what actually executed (budget-capped).
	NaiveSchedules   int
	PlannedSchedules int
	SchedulesRun     int
}

// Pruning is the fraction of the naive schedule space DPOR discarded
// before budgeting: 1 - Planned/Naive.
func (r *ConcReport) Pruning() float64 {
	if r.NaiveSchedules == 0 {
		return 0
	}
	return 1 - float64(r.PlannedSchedules)/float64(r.NaiveSchedules)
}

func (r *ConcReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: %d candidates -> %d conflicts, %d/%d schedules (naive %d, pruned %.0f%%), %d boundaries, %d torn, %d violations",
		r.Target, r.Trace, r.Candidates, r.Conflicts, r.SchedulesRun, r.PlannedSchedules,
		r.NaiveSchedules, 100*r.Pruning(), r.Explored, r.TornExplored, r.ViolationCount)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// conflicts computes the candidate and conflicting cross-thread pairs of
// a baseline recording, and builds each conflict's preempt schedules.
func conflicts(base *ConcRecording) (cands int, pairs []conflictPair) {
	// Completion order over scheduled ops only.
	type done struct {
		s   site
		rec int
	}
	var order []done
	for t := range base.Meta {
		for j := range base.Meta[t] {
			if base.Meta[t][j].RecIdx >= 0 {
				order = append(order, done{site{t, j}, base.Meta[t][j].RecIdx})
			}
		}
	}
	sort.Slice(order, func(i, k int) bool { return order[i].rec < order[k].rec })

	lines := make(map[site]map[uint64]bool)
	for _, d := range order {
		lines[d.s] = base.Lines(d.s.t, d.s.j)
	}
	for p := 0; p < len(order); p++ {
		for q := p + 1; q < len(order) && q-p <= pairGap; q++ {
			a, b := order[p].s, order[q].s
			if a.t == b.t {
				continue
			}
			cands++
			if !dependent(base, a, b, lines) {
				continue
			}
			// Force B's completion inside A: preempt A's thread at a
			// switchable yield within A, run B's thread through op B.
			cp := conflictPair{a: a, b: b}
			for _, at := range sample(base.Meta[a.t][a.j].SwitchSteps, preemptsPerPair) {
				cp.schedules = append(cp.schedules, Schedule{
					Preempt: &Preempt{At: at, To: b.t, UntilOp: b.j},
				})
			}
			pairs = append(pairs, cp)
		}
	}
	return cands, pairs
}

// dependent reports whether a and b conflict: their journaled flushes
// touch a common line, or they acquired a common resource.
func dependent(base *ConcRecording, a, b site, lines map[site]map[uint64]bool) bool {
	for ln := range lines[a] {
		if lines[b][ln] {
			return true
		}
	}
	for _, ra := range base.Meta[a.t][a.j].Res {
		for _, rb := range base.Meta[b.t][b.j].Res {
			if ra == rb {
				return true
			}
		}
	}
	return false
}

// sample picks up to n values spread evenly across steps.
func sample(steps []int32, n int) []int32 {
	if len(steps) == 0 {
		return nil
	}
	if len(steps) <= n {
		out := make([]int32, len(steps))
		copy(out, steps)
		return out
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, steps[i*(len(steps)-1)/(n-1)])
	}
	// Adjacent picks can coincide when steps cluster; dedup.
	ded := out[:1]
	for _, v := range out[1:] {
		if v != ded[len(ded)-1] {
			ded = append(ded, v)
		}
	}
	return ded
}

// EnumerateConc records ct under the baseline round-robin schedule,
// verifies every boundary of that recording, then explores the
// DPOR-reduced schedule space: each conflicting cross-thread op pair is
// re-recorded under preemptive schedules forcing the reversed order,
// and recovery is verified across the disturbed window (plus the final
// boundary) of each variant.
func EnumerateConc(tg Target, ct ConcTrace, opt ConcOptions) (*ConcReport, error) {
	base, err := ConcRecord(tg, ct, Schedule{}, RecordOptions{})
	if err != nil {
		return nil, err
	}
	report := &ConcReport{Report: *newReport(tg.Name, ct.Name, PowerCut)}

	// Baseline: full boundary sweep, like the single-threaded checker.
	cfg := Config{Torn: opt.Torn, TornSeed: opt.TornSeed}
	cfg.MaxBoundaries = opt.MaxBoundaries
	report.merge(Sweep(base.Recording, PowerCut, nil, cfg))
	cfg.MaxBoundaries = 0

	cands, pairs := conflicts(base)
	report.Candidates = cands
	report.Conflicts = len(pairs)
	report.NaiveSchedules = cands * preemptsPerPair
	for _, cp := range pairs {
		report.PlannedSchedules += len(cp.schedules)
	}

	for _, cp := range pairs {
		for _, sched := range cp.schedules {
			if opt.MaxSchedules > 0 && report.SchedulesRun >= opt.MaxSchedules {
				return report, nil
			}
			vrec, err := ConcRecord(tg, ct, sched, RecordOptions{})
			if err != nil {
				return nil, fmt.Errorf("schedule %s: %w", sched.Key(), err)
			}
			report.SchedulesRun++

			// Verify the boundaries the reordering disturbed: the union of
			// the pair's flush windows in the *variant* recording, plus
			// slack, plus the final boundary (full-trace recovery).
			lo, hi := vrec.pairWindow(cp.a, cp.b)
			cfg.From, cfg.To = lo-slack, hi+slack
			report.merge(Sweep(vrec.Recording, PowerCut, nil, cfg))
			if last := vrec.Boundaries() - 1; last > cfg.To {
				cfg.From, cfg.To = last, last
				report.merge(Sweep(vrec.Recording, PowerCut, nil, cfg))
			}
		}
	}
	return report, nil
}

// pairWindow returns the union of two scheduled ops' flush windows in
// this recording (falling back to the whole scheduled phase if either
// never completed, which cannot happen for ops chosen from a baseline).
func (cr *ConcRecording) pairWindow(a, b site) (lo, hi int) {
	ra, rb := cr.Meta[a.t][a.j].RecIdx, cr.Meta[b.t][b.j].RecIdx
	if ra < 0 || rb < 0 {
		return 0, cr.Boundaries() - 1
	}
	oa, ob := &cr.Ops[ra], &cr.Ops[rb]
	return min(oa.FlushStart, ob.FlushStart), max(oa.FlushEnd, ob.FlushEnd)
}
