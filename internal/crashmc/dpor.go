package crashmc

// The schedule enumerator with DPOR-style reduction. Exhaustively
// interleaving even two short threads at flush granularity is
// combinatorially hopeless; dynamic partial-order reduction observes
// that two schedules differing only in the order of *independent* ops
// reach the same persistent states, so only conflicting op pairs are
// worth reordering. Conflict is judged from the baseline recording's
// dynamic footprints: two cross-thread ops conflict iff their journaled
// flush deltas touch an overlapping cache line, or they acquired the
// same pmem.Resource (the bookkeeping log, the same arena lock — ordering through a
// lock changes who flushes what even when the line sets end up
// disjoint). For every conflicting pair the enumerator replays the
// trace under preemptive schedules that force the reversed order, and
// verifies recovery across the boundaries of the disturbed window. The
// pruned independent pairs are counted, so the coverage table can state
// exactly how much of the naive schedule space the reduction discarded.

import (
	"fmt"
	"sort"
)

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

// variant is one schedule the reduction plans: a preempt that forces the
// conflicting cross-thread pair (a, b) into the reversed order.
type variant struct {
	a, b  site
	sched Schedule
}

// conflicts computes, for a round-robin recording, the candidate
// cross-thread pairs, how many of them conflict, and the variant schedules
// planned for those: each conflict's preempts.
func conflicts(base *ConcRecording) (cands, pairs int, plan []variant) {
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
			pairs++
			for _, at := range sample(base.Meta[a.t][a.j].SwitchSteps, preemptsPerPair) {
				plan = append(plan, variant{a: a, b: b, sched: Schedule{
					Preempt: &Preempt{At: at, To: b.t, UntilOp: b.j},
				}})
			}
		}
	}
	return cands, pairs, plan
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

// raceSchedules explores the reduced schedule space of the raced trace
// recorded round robin in base: it records the trace again under each
// planned variant (the first maxSchedules of them; <= 0 takes every one)
// and takes clean and torn power cuts, into sweep, at the boundaries the
// reordering disturbed — the union of the pair's flush windows in the
// variant recording, slack on each side, and the final boundary
// (full-trace recovery). It returns the family's shape (RaceShape).
func raceSchedules(base *ConcRecording, cfg Config, maxSchedules int, sweep *Report) ([]Counter, error) {
	cands, pairs, plan := conflicts(base)
	run := plan
	if maxSchedules > 0 && len(run) > maxSchedules {
		run = run[:maxSchedules]
	}
	reps, errs := make([]*Report, len(run)), make([]error, len(run))
	each := cfg.fanOut
	cfg.Pool, cfg.MaxBoundaries = nil, 0
	each(len(run), func(i int) {
		v := run[i]
		vrec, err := ConcRecord(base.Target, base.Trace, v.sched, base.opts)
		if err != nil {
			errs[i] = fmt.Errorf("schedule %s: %w", v.sched.Key(), err)
			return
		}
		lo, hi := vrec.pairWindow(v.a, v.b)
		last := vrec.Boundaries() - 1
		var ks []int
		for k := max(lo-slack, 0); k <= min(hi+slack, last); k++ {
			ks = append(ks, k)
		}
		if last > hi+slack {
			ks = append(ks, last)
		}
		reps[i] = Sweep(vrec.Recording, PowerCut, ks, cfg)
	})
	for i := range run {
		if errs[i] != nil {
			return nil, errs[i]
		}
		sweep.merge(reps[i])
	}
	return RaceShape(cands, pairs, len(run), len(plan)), nil
}

// RaceShape is a raced family's shape: the naive reorder set (cands
// cross-thread pairs, so cands x preemptsPerPair naive schedules), the
// conflicts among them, the variant schedules run and planned, and the
// naive schedules the reduction pruned. The family needs a conflict, a
// schedule run, and at least half of the naive schedules pruned.
func RaceShape(cands, conflicts, run, planned int) []Counter {
	naive := cands * preemptsPerPair
	return []Counter{
		{Name: "candidates", N: cands},
		{Name: "conflicts", N: conflicts, Min: 1},
		{Name: "schedules_run", N: run, Min: 1},
		{Name: "schedules_planned", N: planned},
		{Name: "naive", N: naive},
		{Name: "pruned", N: naive - planned, Min: (naive + 1) / 2},
	}
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
