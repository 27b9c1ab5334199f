package pmem

import "sync"

// Category classifies the work a worker is doing when it charges virtual
// time or flushes a line. The categories match the paper's Figure 11
// breakdown (FlushMeta, FlushWAL, Search, Other).
type Category int

const (
	// CatMeta is persistence of heap metadata (bitmaps, slab headers,
	// extent headers, bookkeeping log entries).
	CatMeta Category = iota
	// CatWAL is persistence of write-ahead log entries.
	CatWAL
	// CatSearch is CPU time spent searching, splitting and coalescing.
	CatSearch
	// CatOther is everything else (list maintenance, user copies, ...).
	CatOther
	// NumCategories is the number of charge categories.
	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatMeta:
		return "FlushMeta"
	case CatWAL:
		return "FlushWAL"
	case CatSearch:
		return "Search"
	default:
		return "Other"
	}
}

// SchedPoint names a class of scheduler yield points: the places where
// a concurrency model checker may interleave another worker's execution.
// They are exactly the synchronization events of the allocator's
// persistence protocol — resource acquisition/release, line flushes and
// store fences — so a scheduler driving hooked contexts observes every
// ordering decision that matters to crash consistency.
type SchedPoint int

const (
	// PointAcquire fires immediately before a Resource is locked.
	PointAcquire SchedPoint = iota
	// PointRelease fires immediately after a Resource is unlocked.
	PointRelease
	// PointFlush fires after a line flush has reached the media (and,
	// with the journal enabled, after its delta was journaled).
	PointFlush
	// PointFence fires at a store fence.
	PointFence
)

func (p SchedPoint) String() string {
	switch p {
	case PointAcquire:
		return "acquire"
	case PointRelease:
		return "release"
	case PointFlush:
		return "flush"
	case PointFence:
		return "fence"
	}
	return "point?"
}

// SchedHook receives every schedule point reached by a hooked Ctx. The
// crash-point model checker's deterministic scheduler implements it to
// serialize trace threads at these points.
//
// switchable reports whether the context holds no Resource at the yield:
// a scheduler may only suspend a worker at switchable points — a worker
// parked inside a critical section would deadlock any other worker
// (scheduled or not) that takes the same lock. r is non-nil only for
// PointAcquire/PointRelease.
type SchedHook interface {
	Yield(c *Ctx, p SchedPoint, r *Resource, switchable bool)
	// Step returns the scheduler's current global step counter; journaled
	// flush deltas are stamped with it (FlushDelta.Step) so every delta
	// carries schedule provenance.
	Step() int32
}

// Ctx is a per-worker execution context: a virtual clock plus the local
// state needed to classify flushes (reflush window, sequential-write
// detector) and per-category accounting. A Ctx must not be shared between
// goroutines.
type Ctx struct {
	dev Dev

	// sim is dev's concrete type when the context runs on the simulated
	// device, so the flush hot path reaches banks, line locks and the media
	// image without interface dispatch. It is nil on the direct device,
	// which short-circuits the virtual-time model: flushes and fences only
	// bump local counters, and Resources degrade to plain mutexes.
	sim *Device

	// mem is the device's concrete image view, so Ctx store helpers
	// (PersistU64) skip interface dispatch.
	mem Mem

	// Now is the worker's virtual clock in nanoseconds.
	Now int64

	// clock is the direct device's clock (nil on the simulated device).
	clock func() int64

	// ThreadID labels this worker's journaled flush deltas
	// (FlushDelta.Thread); recorders of multi-threaded traces assign it.
	ThreadID int32

	// hook, when non-nil, observes this context's schedule points; held
	// counts the Resources currently held (yields are only switchable at
	// held == 0).
	hook SchedHook
	held int

	// recent is the worker's reflush window: the last ReflushWindow unique
	// line numbers flushed, most recent first. Values are line+1 so the
	// zero value means "empty slot".
	recent [ReflushWindow]uint64

	// lastLine+1 of the previous flush, for sequential-write detection.
	lastLine uint64

	// flushIssued counts flushLine invocations (including ones dropped by
	// an armed crash); folded into Device.flushTotal by Merge.
	flushIssued uint64

	local Stats
}

// NewCtx creates a worker context for the device.
func (d *Device) NewCtx() *Ctx {
	return &Ctx{dev: d, sim: d, mem: d.Mem()}
}

// Device returns the device this context operates on.
func (c *Ctx) Device() Dev { return c.dev }

// SetSchedHook installs (or, with nil, removes) the context's scheduler
// hook. Must be called while the context is quiescent.
func (c *Ctx) SetSchedHook(h SchedHook) { c.hook = h }

// yield reports a schedule point to the hook, if any.
func (c *Ctx) yield(p SchedPoint, r *Resource) {
	if c.hook != nil {
		c.hook.Yield(c, p, r, c.held == 0)
	}
}

// Clock returns the time, in nanoseconds, that state kept across calls
// (free-extent decay) ages by: the worker's virtual clock Now on the
// simulated device, and on the direct device its one clock for every
// context, the monotonic wall clock since the device was created unless
// DirectConfig.Clock replaced it.
func (c *Ctx) Clock() int64 {
	if c.clock != nil {
		return c.clock()
	}
	return c.Now
}

// Charge advances the virtual clock by ns, attributing it to cat.
func (c *Ctx) Charge(cat Category, ns int64) {
	c.Now += ns
	c.local.CatNS[cat] += ns
}

// Fence orders preceding flushes. Each flush is already charged its full
// latency, so a fence only costs the small fixed fence latency.
func (c *Ctx) Fence() {
	c.local.Fences++
	if c.sim == nil {
		// Real mode: the fence is instrumentation only. The compiler
		// barrier a real sfence would add is unnecessary — every ordering
		// the allocators rely on at runtime comes from their own mutexes
		// and atomics, not from persistence fences.
		return
	}
	c.Charge(CatOther, FenceNS)
	c.yield(PointFence, nil)
}

// Flush persists every cache line overlapping [addr, addr+size),
// attributing its cost to cat. In eADR mode this is (nearly) free.
func (c *Ctx) Flush(cat Category, addr PAddr, size int) {
	if size <= 0 {
		return
	}
	first := uint64(addr) / LineSize
	last := (uint64(addr) + uint64(size) - 1) / LineSize
	for line := first; line <= last; line++ {
		c.flushLine(cat, line)
	}
}

// FlushU64 persists the single cache line containing addr. It is Flush
// for stores the caller knows cannot cross a line boundary (an aligned
// 8-byte word, a bitmap byte, a WAL slot), skipping the range setup.
func (c *Ctx) FlushU64(cat Category, addr PAddr) {
	c.flushLine(cat, uint64(addr)/LineSize)
}

// PersistU64 stores v at addr and flushes its line: the canonical
// 8-byte-atomic persistent write.
func (c *Ctx) PersistU64(cat Category, addr PAddr, v uint64) {
	c.mem.WriteU64(addr, v)
	c.FlushU64(cat, addr)
}

func (c *Ctx) flushLine(cat Category, line uint64) {
	c.flushIssued++
	if c.sim == nil {
		// Real mode: count the flush so call ratios stay comparable with
		// simulated runs, but charge nothing and touch no shared state.
		c.local.Flushes++
		c.local.CatFlush[cat]++
		return
	}
	d := c.sim

	// Rare-feature checks (crash flag, flush countdown, flush tracing) sit
	// behind a single pre-armed gate: the steady-state flush pays one
	// atomic load for all three.
	if d.flushArmed.Load() && d.flushSlowPath(cat, line) {
		return
	}

	if d.mode == ModeEADR {
		c.local.Flushes++
		c.local.CatFlush[cat]++
		c.Charge(cat, EADRFlushNS)
		c.yield(PointFlush, nil)
		return
	}

	// Classify: reflush (line seen within the last ReflushWindow unique
	// flushed lines) vs. regular sequential/random flush.
	key := line + 1
	var ns int64
	dist := -1
	for i, v := range c.recent {
		if v == key {
			dist = i
			break
		}
	}
	if dist >= 0 {
		step := dist
		if step > 3 {
			step = 3
		}
		ns = ReflushBaseNS - int64(step)*ReflushStepNS
		c.local.Reflushes++
	} else if c.lastLine != 0 && line == c.lastLine {
		// lastLine holds previous-line+1, so equality means "adjacent".
		ns = SeqFlushNS
		c.local.SeqFlushes++
	} else {
		ns = RandFlushNS
		c.local.RandFlushes++
	}
	c.lastLine = line + 1

	// Move line to the front of the reflush window. Shifted by hand: the
	// window is 4 entries, and a copy() here is a memmove call on the
	// hottest loop in the simulator.
	if dist != 0 {
		if dist < 0 {
			dist = len(c.recent) - 1
		}
		for j := dist; j > 0; j-- {
			c.recent[j] = c.recent[j-1]
		}
		c.recent[0] = key
	}

	// Serialize on the media bank and consult its write-combining buffer.
	b := &d.banks[line%uint64(len(d.banks))]
	xp := uint64(line*LineSize)/XPLineSize + 1
	b.mu.Lock()
	hit := false
	for i, v := range b.xplines {
		if v == xp {
			hit = true
			if i != 0 {
				for j := i; j > 0; j-- {
					b.xplines[j] = b.xplines[j-1]
				}
				b.xplines[0] = xp
			}
			break
		}
	}
	if !hit {
		for j := len(b.xplines) - 1; j > 0; j-- {
			b.xplines[j] = b.xplines[j-1]
		}
		b.xplines[0] = xp
		ns += XPMissNS
	}
	// Banks are fluid servers too (see Resource): a flush queues behind
	// the bank's accumulated service load, occupies it for the media
	// service time, and the issuer additionally observes the full flush
	// round-trip latency.
	start := c.Now
	if b.clock > start {
		c.local.BankWaitNS += b.clock - start
		start = b.clock
	}
	svc := int64(BankServiceNS)
	if ns < svc {
		svc = ns
	}
	b.clock += svc
	c.Now = start + ns
	b.mu.Unlock()

	c.local.CatNS[cat] += ns
	c.local.Flushes++
	c.local.CatFlush[cat]++

	if d.strict {
		// Take the line's stripe so the whole-line copy cannot observe (or
		// race with) a concurrent store to another word of the same line.
		off := line * LineSize
		mu := d.lineLock(line)
		mu.Lock()
		copy(d.media[off:off+LineSize], d.data[off:off+LineSize])
		if d.journalOn {
			fd := FlushDelta{Line: line, Cat: cat, Thread: c.ThreadID, Step: -1}
			if c.hook != nil {
				fd.Step = c.hook.Step()
			}
			copy(fd.Data[:], d.data[off:off+LineSize])
			mu.Unlock()
			d.journalMu.Lock()
			d.journal = append(d.journal, fd)
			n := len(d.journal)
			d.journalMu.Unlock()
			if d.onJournal != nil {
				d.onJournal(n)
			}
		} else {
			mu.Unlock()
		}
	}
	c.yield(PointFlush, nil)
}

// flushSlowPath runs the rare flush-time features — crash countdown, flush
// tracing — and reports whether the flush must be dropped (device crashed:
// nothing persists any more).
func (d *Device) flushSlowPath(cat Category, line uint64) bool {
	if d.crashed.Load() {
		return true
	}
	if d.crashAfter.Load() >= 0 {
		if d.crashAfter.Add(-1) < 0 {
			d.crashed.Store(true)
			return true
		}
	}
	if d.traceCap > 0 {
		d.traceMu.Lock()
		if len(d.trace) < d.traceCap {
			d.trace = append(d.trace, FlushRecord{Seq: len(d.trace), Addr: PAddr(line * LineSize), Cat: cat})
		}
		d.traceMu.Unlock()
	}
	return false
}

// Merge folds this context's local statistics into the device totals and
// resets the local counters. Call it when a worker finishes.
func (c *Ctx) Merge() {
	c.dev.mergeStats(&c.local, c.flushIssued, c.Now)
	c.local = Stats{}
	c.flushIssued = 0
}

// Local returns a copy of the context's unmerged statistics.
func (c *Ctx) Local() Stats { return c.local }

// Resource models a shared structure (an arena, a log, a global list) as
// both a real mutex and a virtual-time serialization point. The virtual
// model is a fluid server: the resource accumulates the virtual duration
// of every critical section executed under it, and a worker arriving at
// virtual time t waits until the accumulated load has drained (start =
// max(t, load)). Crucially this is independent of the *real* order in
// which goroutines take the mutex, so single-core test machines produce
// the same virtual contention as a 40-core testbed: an uncontended
// resource never delays anyone, and a saturated one serializes its users.
type Resource struct {
	mu       sync.Mutex
	load     int64  // cumulative critical-section virtual ns served
	start    int64  // current holder's section start (valid while locked)
	waitNS   int64  // cumulative virtual wait observed by acquirers
	acquires uint64 // number of Acquire calls (not Lock)

	// _pad rounds the resource to a full cache line (8+8+8+8+8+24 = 64)
	// so structs embedding several Resources — or a Resource next to other
	// hot fields — don't false-share under real goroutines.
	_pad [64 - 40]byte
}

// Acquire locks the resource and queues the worker behind its accumulated
// virtual load. In direct mode it is a plain mutex lock: real contention
// is measured by the wall clock, not modelled.
func (r *Resource) Acquire(c *Ctx) {
	if c.sim == nil {
		r.mu.Lock()
		c.held++
		return
	}
	c.yield(PointAcquire, r)
	r.mu.Lock()
	c.held++
	r.acquires++
	if r.load > c.Now {
		w := r.load - c.Now
		c.local.LockWaitNS += w
		r.waitNS += w
		c.Now = r.load
	}
	r.start = c.Now
}

// Release adds the critical section's virtual duration to the resource's
// load and unlocks it.
func (r *Resource) Release(c *Ctx) {
	if c.sim == nil {
		r.mu.Unlock()
		c.held--
		return
	}
	if cs := c.Now - r.start; cs > 0 {
		r.load += cs
	}
	r.mu.Unlock()
	c.held--
	c.yield(PointRelease, r)
}

// Lock takes the resource's mutex without touching the virtual-time
// model: no context is needed, no wait is charged, and no counters move.
// Use it for read-mostly accessors (stats, object walks) that must not
// perturb the simulation. Pair with Unlock.
func (r *Resource) Lock() { r.mu.Lock() }

// Unlock releases a Lock-only acquisition.
func (r *Resource) Unlock() { r.mu.Unlock() }

// Load returns the resource's accumulated virtual load (diagnostics).
func (r *Resource) Load() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.load
}

// WaitNS returns the cumulative virtual wait workers observed acquiring
// the resource (the resource-side view of Stats.LockWaitNS).
func (r *Resource) WaitNS() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.waitNS
}

// Acquires returns the number of Acquire calls served (Lock-only
// acquisitions are not counted).
func (r *Resource) Acquires() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acquires
}
