package crashmc

// The deterministic scheduler: crashmc's bridge from single-threaded
// trace recording to schedule-aware model checking. A raced Trace names N
// per-thread op sequences; ConcRecord runs them on N goroutines that are
// serialized by a token — exactly one runs at any instant — and context
// switches happen only at the named schedule points pmem.Ctx exposes
// (resource acquire/release, flush, fence) plus op boundaries. The
// resulting flush journal is a deterministic function of (trace,
// Schedule): replaying the same Schedule reproduces the same journal
// byte-for-byte, which is what lets a violation ship as a reproducible
// (trace seed, schedule key, boundary) triple.
//
// Suspension discipline: a thread may be suspended only at *switchable*
// yields — points where its Ctx holds no pmem.Resource. Since every
// suspended thread is at such a point, no suspended thread ever holds a
// real lock, so the one running thread can never block on a peer and the
// token can always make progress. Critical sections are therefore atomic
// with respect to the explored interleavings, which is faithful: the
// allocator's real locks serialize those sections anyway. What the
// scheduler *does* reorder is everything the locks do not protect — the
// publish/flush/fence tails that run outside the bookkeeping log's resource, drain
// batches, GC copy loops — which is precisely where concurrent crash
// bugs live.

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// Preempt is one mid-op context switch: at the first switchable yield
// step >= At, the running thread is suspended and thread To runs through
// the completion of its op index UntilOp (executing any earlier
// still-pending ops on the way), after which the suspended thread
// resumes its split op.
type Preempt struct {
	At      int32
	To      int
	UntilOp int
}

// Schedule selects one interleaving of a raced Trace. The zero value is
// the baseline: non-preemptive round-robin, one op per turn. A Preempt
// splits a single op mid-flight — because the baseline prefix before At
// is deterministic, the split lands at the same micro-state every run.
type Schedule struct {
	Preempt *Preempt
}

// Key names the schedule compactly; it is recorded on every Recording
// (Recording.Sched) and every Violation, and is sufficient (with the
// trace) to replay the exact interleaving.
func (s Schedule) Key() string {
	if s.Preempt == nil {
		return "rr"
	}
	return fmt.Sprintf("rr+p@%d>t%d#%d", s.Preempt.At, s.Preempt.To, s.Preempt.UntilOp)
}

// OpSite is the dynamic footprint of one scheduled op, captured during
// recording: where its record landed, which resources it acquired, and
// the switchable yield steps inside it (the legal preemption points a
// DPOR enumerator can split it at).
type OpSite struct {
	RecIdx      int              // index into Recording.Ops (-1 until completed)
	Res         []*pmem.Resource // resources acquired during the op
	SwitchSteps []int32          // switchable global yield steps inside the op
}

func (o *OpSite) addRes(r *pmem.Resource) {
	for _, x := range o.Res {
		if x == r {
			return
		}
	}
	o.Res = append(o.Res, r)
}

// ConcRecording is a Recording made under an explicit schedule, plus the
// per-op scheduling metadata the DPOR enumerator consumes.
type ConcRecording struct {
	*Recording
	// Meta[t][j] is thread t's op j's footprint; Meta[t][j].RecIdx maps
	// it back into Recording.Ops (completion order).
	Meta [][]OpSite
	// Steps is the total global yield-step count of the scheduled phase.
	Steps int32
}

// Lines returns the set of journal lines thread t's op j flushed,
// identified by the journal deltas' thread provenance inside the op's
// flush window. This is the line half of the DPOR conflict footprint.
func (cr *ConcRecording) Lines(t, j int) map[uint64]bool {
	site := &cr.Meta[t][j]
	if site.RecIdx < 0 {
		return nil
	}
	or := &cr.Ops[site.RecIdx]
	lines := map[uint64]bool{}
	for _, fd := range cr.Journal[or.FlushStart:or.FlushEnd] {
		if fd.Thread == int32(t+1) {
			lines[fd.Line] = true
		}
	}
	return lines
}

// racedMarkerSpace offsets scheduled ops' data markers per thread so
// they never collide with prologue markers (markerFor(i), i < 4096) or each
// other.
const racedMarkerSpace = 4096

// scheduler implements pmem.SchedHook: the token-passing serializer.
// All fields are mutated only by the thread currently holding the token;
// token channel sends/receives provide the happens-before edges, so the
// recording is race-free under -race without any locks of its own.
type scheduler struct {
	sched  Schedule
	tokens []chan struct{}
	done   []bool
	nDone  int
	finish chan struct{}
	fail   any // panic value from a worker, re-raised by the recorder

	step  int32
	curOp []int
	meta  [][]OpSite

	fired      bool // the schedule's preempt has fired
	preempting bool // preempt target currently running inside the split
	preempted  int  // thread suspended mid-op by the preempt
}

func newScheduler(sched Schedule, opsPerThread []int) *scheduler {
	n := len(opsPerThread)
	s := &scheduler{
		sched:  sched,
		tokens: make([]chan struct{}, n),
		done:   make([]bool, n),
		finish: make(chan struct{}),
		curOp:  make([]int, n),
		meta:   make([][]OpSite, n),
	}
	for t := 0; t < n; t++ {
		s.tokens[t] = make(chan struct{}, 1)
		s.meta[t] = make([]OpSite, opsPerThread[t])
		for j := range s.meta[t] {
			s.meta[t][j].RecIdx = -1
		}
	}
	return s
}

// Step implements pmem.SchedHook: journaled flush deltas are stamped
// with it, giving every delta schedule provenance.
func (s *scheduler) Step() int32 { return s.step }

// Yield implements pmem.SchedHook. Called by the running thread at every
// schedule point of its Ctx; this is where mid-op preemption happens.
func (s *scheduler) Yield(c *pmem.Ctx, p pmem.SchedPoint, r *pmem.Resource, switchable bool) {
	t := int(c.ThreadID) - 1
	if t < 0 || t >= len(s.tokens) {
		return // unscheduled context (prologue and close phases)
	}
	s.step++
	if j := s.curOp[t]; j < len(s.meta[t]) {
		site := &s.meta[t][j]
		if p == pmem.PointAcquire && r != nil {
			site.addRes(r)
		}
		if switchable {
			site.SwitchSteps = append(site.SwitchSteps, s.step)
		}
	}
	if !switchable {
		return
	}
	pr := s.sched.Preempt
	if pr != nil && !s.fired && s.step >= pr.At &&
		pr.To >= 0 && pr.To < len(s.tokens) && pr.To != t && !s.done[pr.To] {
		s.fired = true
		s.preempting = true
		s.preempted = t
		s.pass(t, pr.To)
	}
}

// pass hands the token to thread `to` and blocks until it comes back to
// `from`.
func (s *scheduler) pass(from, to int) {
	s.tokens[to] <- struct{}{}
	<-s.tokens[from]
}

// afterOp is the op-boundary schedule point: the default round-robin
// switch, and the end of a preempt split once the target completed
// UntilOp.
func (s *scheduler) afterOp(t int) {
	if s.preempting {
		if pr := s.sched.Preempt; t == pr.To {
			if s.curOp[t] >= pr.UntilOp {
				s.preempting = false
				s.pass(t, s.preempted) // resume the split op
			}
			// else: keep running toward UntilOp.
		}
		return
	}
	if next := s.nextThread(t); next != t {
		s.pass(t, next)
	}
}

// nextThread returns the round-robin successor of t that is not done, or
// t itself when it is the only thread left.
func (s *scheduler) nextThread(t int) int {
	n := len(s.tokens)
	for i := 1; i <= n; i++ {
		if c := (t + i) % n; !s.done[c] {
			return c
		}
	}
	return t
}

// exit retires thread t and hands the token onward without waiting.
func (s *scheduler) exit(t int) {
	s.done[t] = true
	s.nDone++
	if s.preempting && t == s.sched.Preempt.To {
		// The split target ran out of ops before UntilOp: resume the
		// preempted thread.
		s.preempting = false
		s.tokens[s.preempted] <- struct{}{}
		return
	}
	if s.nDone == len(s.tokens) {
		close(s.finish)
		return
	}
	next := s.nextThread(t)
	s.tokens[next] <- struct{}{}
}

// abort records a worker panic and releases the recorder; peers stay
// parked (the run is unrecoverable and the process is about to fail).
func (s *scheduler) abort(v any) {
	s.fail = v
	close(s.finish)
}

// ConcRecord executes the raced trace tr against a fresh heap of tg under
// the given schedule and captures a journaled recording. Thread handles
// are created serially before the scheduler starts, so arena binding — and
// therefore the whole recording — is deterministic in (tg, tr, sched).
func ConcRecord(tg Target, tr Trace, sched Schedule, opts RecordOptions) (*ConcRecording, error) {
	n := len(tr.Raced)
	if n == 0 {
		return nil, fmt.Errorf("crashmc: trace %q has no raced threads", tr.Name)
	}
	for t, ops := range tr.Raced {
		for j, op := range ops {
			if !op.Kind.known() {
				return nil, fmt.Errorf("crashmc: thread %d op %d: unknown kind %v", t, j, op.Kind)
			}
		}
	}
	ss, err := open(newDevice(nil), tg, tr, sched.Key(), opts)
	if err != nil {
		return nil, err
	}
	rec := ss.rec
	threads := make([]alloc.Thread, n)
	for t := range threads {
		threads[t] = ss.h.NewThread()
	}

	// Serial prologue: plain Record semantics. Its records are the
	// recording's first, so tr.Ops[i] is rec.Ops[i].
	if err := ss.serial(tr.Ops, threads); err != nil {
		return nil, err
	}

	// Scheduled phase. The token serializes every worker: rec and the
	// scheduler's own state are only ever touched by the token holder.
	opsPer := make([]int, n)
	for t := range tr.Raced {
		opsPer[t] = len(tr.Raced[t])
	}
	s := newScheduler(sched, opsPer)
	for t := range threads {
		c := threads[t].Ctx()
		c.ThreadID = int32(t + 1)
		c.SetSchedHook(s)
	}
	for t := range tr.Raced {
		go func(t int, ops []Op) {
			defer func() {
				if r := recover(); r != nil {
					s.abort(r)
				}
			}()
			<-s.tokens[t]
			for j, op := range ops {
				s.curOp[t] = j
				// A ref that is out of range, or not completed under this
				// schedule, stays nil: a deterministic skip, not a block.
				var ref *OpRecord
				if op.Kind == OpFree {
					switch {
					case op.Thread < 0:
						if op.Ref >= 0 && op.Ref < len(tr.Ops) {
							ref = &rec.Ops[op.Ref]
						}
					case op.Thread < n && op.Ref >= 0 && op.Ref < len(s.meta[op.Thread]) &&
						s.meta[op.Thread][op.Ref].RecIdx >= 0:
						ref = &rec.Ops[s.meta[op.Thread][op.Ref].RecIdx]
					}
				}
				or := ss.exec(threads[t], op, markerFor(racedMarkerSpace*(t+1)+j), ref)
				s.meta[t][j].RecIdx = len(rec.Ops)
				rec.Ops = append(rec.Ops, or)
				s.afterOp(t)
			}
			s.curOp[t] = len(ops)
			s.exit(t)
		}(t, tr.Raced[t])
	}
	s.tokens[0] <- struct{}{}
	<-s.finish
	if s.fail != nil {
		return nil, fmt.Errorf("crashmc: raced trace %q schedule %s panicked: %v", tr.Name, sched.Key(), s.fail)
	}
	for t := range threads {
		threads[t].Ctx().SetSchedHook(nil)
	}

	if _, err := ss.close(threads); err != nil {
		return nil, err
	}
	return &ConcRecording{Recording: rec, Meta: s.meta, Steps: s.step}, nil
}
