package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/baseline"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// alloc-larson embeds the allocator directly: every goroutine owns an
// alloc.Thread and replaces a random one of larsonSlots slots (free,
// then malloc of 64-256 B); one op in 16 hands the new block to the
// neighbouring goroutine, which will free it remotely. Every block is
// stamped at allocation and checked before it is freed.
const (
	larsonSlots = 1024
	// larsonBurst ops make one open-loop request and one trace span.
	larsonBurst = 64
	// The inboxes are as deep as one burst can fill, so a hand-over
	// never blocks on a neighbour that is between bursts.
	larsonInbox = larsonBurst
	// Set-up ends with larsonAgeOps steps per worker, which replace
	// every slot 64 times over: Larson's shuffled heap, and enough
	// allocator work that set-up time is not just the page faults of a
	// fresh file, which on a shared host vary by half between one
	// quarter of an hour and the next.
	larsonAgeOps = 64 * larsonSlots
	// One set-up takes tens of milliseconds, so every run times this
	// many and reports their median.
	larsonSetups = 21
)

type block struct {
	addr pmem.PAddr
	size uint64
}

// larsonOp is one step of a goroutine's stream.
type larsonOp struct {
	slot  int
	size  uint64
	cross bool
}

func larsonNext(rng *splitmix) larsonOp {
	r := rng.next()
	return larsonOp{slot: int(r % larsonSlots), size: 64 + (r>>16)%25*8, cross: (r>>40)%16 == 0}
}

func larsonRNG(seed uint64, worker int) splitmix {
	return splitmix(seed*0x9E3779B97F4A7C15 + uint64(worker)*0xBF58476D1CE4E5B9 + 7)
}

func larsonStreamHash(seed uint64, workers, n int) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for w := 0; w < workers; w++ {
		rng := larsonRNG(seed, w)
		for i := 0; i < n; i++ {
			o := larsonNext(&rng)
			binary.LittleEndian.PutUint64(buf[0:], uint64(o.slot))
			binary.LittleEndian.PutUint64(buf[8:], o.size)
			if o.cross {
				buf[16] = 1
			} else {
				buf[16] = 0
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func stampOf(b block) uint64 { return uint64(b.addr)*0x9E3779B97F4A7C15 ^ b.size }

// larsonWorker is one goroutine's state. Only that goroutine touches
// it while a phase runs.
type larsonWorker struct {
	id    int
	dev   pmem.Dev
	th    alloc.Thread
	rng   splitmix
	slots [larsonSlots]block
	// ref is the worker's twin on the reference allocator: the same
	// loop on its own stream, heap and slots.
	ref *larsonWorker
	// inbox receives blocks the neighbour allocated for this worker;
	// out is the neighbour's inbox.
	inbox, out chan block

	ops, failed uint64
	firstErr    string
	// busy totals the closed loop's slices for the window sampler.
	busy struct{ ops, ns atomic.Int64 }
}

func (w *larsonWorker) fail(format string, args ...any) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
}

func (w *larsonWorker) malloc(size uint64) block {
	addr, err := w.th.Malloc(size)
	if err != nil {
		w.fail("malloc(%d): %v", size, err)
		return block{}
	}
	b := block{addr: addr, size: size}
	w.dev.WriteU64(addr, stampOf(b))
	w.dev.WriteU64(addr+pmem.PAddr(size-8), ^stampOf(b))
	return b
}

func (w *larsonWorker) intact(b block) bool {
	return w.dev.ReadU64(b.addr) == stampOf(b) && w.dev.ReadU64(b.addr+pmem.PAddr(b.size-8)) == ^stampOf(b)
}

// step is one op: check and free the slot's block, allocate its
// replacement, and on a cross op trade the replacement with the
// neighbour.
func (w *larsonWorker) step() {
	o := larsonNext(&w.rng)
	w.ops++
	if old := w.slots[o.slot]; old.addr != pmem.Null {
		if !w.intact(old) {
			w.fail("block %#x (%d B) lost its stamp", old.addr, old.size)
		}
		if err := w.th.Free(old.addr); err != nil {
			w.fail("free(%#x): %v", old.addr, err)
		}
	}
	nb := w.malloc(o.size)
	if o.cross && nb.addr != pmem.Null {
		select {
		case w.out <- nb:
			select {
			case nb = <-w.inbox:
			default:
				nb = w.malloc(o.size)
			}
		default: // the neighbour's inbox is full: keep the block
		}
	}
	w.slots[o.slot] = nb
}

func newLarsonWorker(seed uint64, id int) *larsonWorker {
	return &larsonWorker{id: id, rng: larsonRNG(seed, id), inbox: make(chan block, larsonInbox)}
}

// larsonHeap is the file-backed heap and its workers.
type larsonHeap struct {
	path    string
	dev     *pmem.DirectDev
	heap    *core.Heap
	workers []*larsonWorker
	// refDev and refHeap are the reference allocator's device and heap.
	refDev  *pmem.DirectDev
	refHeap alloc.Heap
}

// newLarsonHeap formats a heap on a fresh file, fills every slot and
// ages the heap: larsonAgeOps steps per worker from this one goroutine,
// the workers taking turns op by op, so the heap a run starts from is a
// pure function of the seed.
func newLarsonHeap(path string, size, seed uint64, workers int) (*larsonHeap, error) {
	os.Remove(path)
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: size, Path: path})
	if err != nil {
		return nil, err
	}
	h, err := core.Create(dev, heapOptions())
	if err != nil {
		dev.Close()
		return nil, err
	}
	lh := &larsonHeap{path: path, dev: dev, heap: h}
	for i := 0; i < workers; i++ {
		lh.workers = append(lh.workers, newLarsonWorker(seed, i))
	}
	lh.attach()
	for _, w := range lh.workers {
		w.fill()
	}
	for i := 0; i < larsonAgeOps; i++ {
		for _, w := range lh.workers {
			w.step()
		}
	}
	return lh, nil
}

// fill gives every slot its first block.
func (w *larsonWorker) fill() {
	for i := range w.slots {
		w.slots[i] = w.malloc(larsonNext(&w.rng).size)
	}
}

// newReference formats the reference allocator on a fresh file and
// gives it n workers with every slot filled. The reference is the
// nvm_malloc re-implementation of internal/baseline, the closest of the
// paper's baselines in design (per-core arenas, bitmaps, one WAL entry
// per op). It only ever holds the workers' slots, so a small device
// will do. The device is a mapped file like the heap under test: an
// anonymous one is a slice the Go collector counts as live, which lets
// that much garbage pile up between collections and makes peak_rss_mb
// a question of when the collector last ran.
func newReference(path string, seed uint64, n int) (*pmem.DirectDev, alloc.Heap, []*larsonWorker, error) {
	os.Remove(path)
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 32 << 20, Path: path})
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := baseline.New(dev, baseline.NvmMalloc)
	if err != nil {
		dev.Close()
		return nil, nil, nil, err
	}
	ws := make([]*larsonWorker, n)
	for i := range ws {
		ws[i] = newLarsonWorker(^seed, i)
		ws[i].dev, ws[i].th = dev, h.NewThread()
	}
	for i, w := range ws {
		w.out = ws[(i+1)%n].inbox
		w.fill()
	}
	return dev, h, ws, nil
}

// addReference gives the workers their twins on the reference
// allocator. Real bursts alternate with reference bursts, and the time
// of a real step in units of a reference step is a figure the machine's
// speed of the moment cancels out of.
func (lh *larsonHeap) addReference(seed uint64) error {
	dev, h, refs, err := newReference(lh.path+"-ref", seed, len(lh.workers))
	if err != nil {
		return err
	}
	lh.refDev, lh.refHeap = dev, h
	for i, w := range lh.workers {
		w.ref = refs[i]
	}
	return nil
}

// referenceSetup is the reference work timed beside every set-up: the
// same format, fill and ageing on the reference allocator, with half
// the ageing steps. It returns the wall time it took.
func referenceSetup(path string, seed uint64, n int) (time.Duration, error) {
	start := time.Now()
	dev, _, ws, err := newReference(path, seed, n)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer dev.Close()
	for i := 0; i < larsonAgeOps/2; i++ {
		for _, w := range ws {
			w.step()
		}
	}
	elapsed := time.Since(start)
	for _, w := range ws {
		if w.failed > 0 {
			return 0, fmt.Errorf("reference set-up: worker %d: %d failed ops (first: %s)", w.id, w.failed, w.firstErr)
		}
	}
	return elapsed, nil
}

// attach gives every worker a fresh thread on the current heap.
func (lh *larsonHeap) attach() {
	for i, w := range lh.workers {
		w.dev, w.th = lh.dev, lh.heap.NewThread()
		w.out = lh.workers[(i+1)%len(lh.workers)].inbox
	}
}

func (lh *larsonHeap) close() {
	lh.dev.Close()
	os.Remove(lh.path)
	if lh.refDev != nil {
		lh.refDev.Close()
		os.Remove(lh.path + "-ref")
	}
}

// held lists every block a worker or an inbox holds.
func (lh *larsonHeap) held() []block {
	var out []block
	for _, w := range lh.workers {
		for _, b := range w.slots {
			if b.addr != pmem.Null {
				out = append(out, b)
			}
		}
		for n := len(w.inbox); n > 0; n-- {
			b := <-w.inbox
			out = append(out, b)
			w.inbox <- b
		}
	}
	return out
}

// crashAndRecover drops the heap without closing it or its threads
// (tcaches, magazines and deferred frees are simply lost), remaps the
// file, recovers with core.Open and checks that every held block is
// still allocated with its stamp intact. It returns core.Open's wall
// time.
func (lh *larsonHeap) crashAndRecover() (time.Duration, error) {
	if err := lh.dev.Close(); err != nil {
		return 0, err
	}
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: lh.dev.Size(), Path: lh.path})
	if err != nil {
		return 0, err
	}
	lh.dev = dev
	start := time.Now()
	h, _, err := core.Open(dev, heapOptions())
	elapsed := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("core.Open after drop: %w", err)
	}
	lh.heap = h
	lh.attach()
	probe := lh.workers[0]
	for _, b := range lh.held() {
		if !h.BlockAllocated(b.addr) {
			return elapsed, fmt.Errorf("held block %#x (%d B) is free after recovery", b.addr, b.size)
		}
		if !probe.intact(b) {
			return elapsed, fmt.Errorf("held block %#x (%d B) lost its stamp across recovery", b.addr, b.size)
		}
	}
	return elapsed, nil
}

// larsonSlice is how long a worker stays on the allocator before it
// turns to the reference allocator for half as long. Slices of
// milliseconds keep each allocator's working set warm while it runs;
// alternating burst by burst did not, and the ratio wandered.
const larsonSlice = 10 * time.Millisecond

// runFor drives every worker for dur with the window sampler beside
// them. With a reference allocator attached, slices on the allocator
// alternate with slices on the reference. Throughput counts the
// allocator's ops over the time spent on the allocator.
func (lh *larsonHeap) runFor(dur time.Duration) closedResult {
	read := func() (t totals) {
		for _, w := range lh.workers {
			t.ops += uint64(w.busy.ops.Load())
			t.cpu += time.Duration(w.busy.ns.Load())
			t.refOps += uint64(w.ref.busy.ops.Load())
			t.ref += time.Duration(w.ref.busy.ns.Load())
		}
		return
	}
	n0, t0 := read().ops, time.Now()
	windows := runSampled(read, func() {
		var wg sync.WaitGroup
		for _, w := range lh.workers {
			wg.Add(1)
			go func(w *larsonWorker) {
				defer wg.Done()
				for now := time.Now(); now.Sub(t0) < dur; {
					now = w.runSlice(now, larsonSlice)
					now = w.ref.runSlice(now, larsonSlice/2)
				}
			}(w)
		}
		wg.Wait()
	})
	// A window's wall time is shared with the reference; what counts
	// for throughput is the time spent on the allocator, which is the
	// window's cpu summed over workers.
	for i := range windows {
		windows[i].dur = windows[i].cpu / time.Duration(len(lh.workers))
	}
	return closedResult{windows: windows, acked: read().ops - n0}
}

// runSlice runs bursts from start until d has passed, accounts them to
// the worker's busy totals and returns the time it stopped.
func (w *larsonWorker) runSlice(start time.Time, d time.Duration) time.Time {
	now, ops := start, int64(0)
	for now.Sub(start) < d {
		for j := 0; j < larsonBurst; j++ {
			w.step()
		}
		ops += larsonBurst
		now = time.Now()
	}
	w.busy.ops.Add(ops)
	w.busy.ns.Add(int64(now.Sub(start)))
	return now
}

// openLoop offers rate bursts/s (all workers together) for dur on a
// fixed schedule and times each burst from its due time. The workers
// are the only busy threads of the phase, one per core, so they pace
// by spinning on the monotonic clock.
func (lh *larsonHeap) openLoop(rate int, dur time.Duration) openResult {
	res := openResult{rate: rate}
	perWorker := float64(rate) / float64(len(lh.workers))
	interval := time.Duration(float64(time.Second) / perWorker)
	total := int(perWorker * dur.Seconds())
	lat := make([][]float64, len(lh.workers))
	late := make([][]float64, len(lh.workers))
	win := latencyWindows(len(lh.workers), dur)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, w := range lh.workers {
		wg.Add(1)
		go func(i int, w *larsonWorker) {
			defer wg.Done()
			for n := 0; n < total; n++ {
				due := time.Duration(n) * interval
				now := time.Since(t0)
				for now < due {
					now = time.Since(t0)
				}
				late[i] = append(late[i], float64(now-due)/1e3)
				for j := 0; j < larsonBurst; j++ {
					w.step()
				}
				l := float64(time.Since(t0)-due) / 1e3
				lat[i] = append(lat[i], l)
				bucket(win[i], due, l)
			}
		}(i, w)
	}
	wg.Wait()
	for i := range lh.workers {
		res.latencies = append(res.latencies, lat[i]...)
		res.lateness = append(res.lateness, late[i]...)
	}
	res.windowP50 = windowMedians(win)
	sort.Float64s(res.latencies)
	sort.Float64s(res.lateness)
	res.sent = uint64(len(res.latencies))
	res.answered, res.completedInWindow = res.sent, res.sent
	return res
}

// selfCPU is the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// collectLarson folds the workers' counters into the run.
func (r *run) collectLarson(lh *larsonHeap, phase string) {
	for _, w := range lh.workers {
		r.counts.attempted += w.ops
		r.counts.acked += w.ops - w.failed
		r.counts.mismatches += w.failed
		if w.failed > 0 {
			r.violate("%s: worker %d: %d failed ops (first: %s)", phase, w.id, w.failed, w.firstErr)
		}
		w.ops, w.failed, w.firstErr = 0, 0, ""
		if w.ref != nil && w.ref.failed > 0 {
			r.violate("%s: worker %d: reference allocator: %d failed ops (first: %s)", phase, w.id, w.ref.failed, w.ref.firstErr)
			w.ref.failed = 0
		}
	}
}

// runLarson drives the five phases of alloc-larson.
func (r *run) runLarson() error {
	if r.trace {
		defer r.shorten(0.4)()
	}

	// Phase 1: set-up, larsonSetups times over after the untimed ones.
	r.lap("")
	var lh *larsonHeap
	var setups []setupTime
	for i := 0; i < warmSetups+larsonSetups; i++ {
		if lh != nil {
			r.collectLarson(lh, "set-up")
			lh.close()
			// The closed heap's volatile half is garbage now: collect
			// it here rather than inside the next timed set-up.
			lh = nil
			runtime.GC()
		}
		var t setupTime
		var err error
		if t.ref, err = referenceSetup(filepath.Join(r.workDir, "heap-ref"), r.seed, r.conns); err != nil {
			return err
		}
		start := time.Now()
		if lh, err = newLarsonHeap(filepath.Join(r.workDir, fmt.Sprintf("heap-%d", i)), r.w.heapSize, r.seed, r.conns); err != nil {
			return err
		}
		t.wall = time.Since(start)
		if i >= warmSetups {
			setups = append(setups, t)
		}
	}
	defer func() { lh.close() }()
	if err := lh.addReference(r.seed); err != nil {
		return err
	}
	r.reportSetup(setups)
	r.collectLarson(lh, "set-up")
	r.lap("set-up")
	lh.runFor(r.phase(0.03)) // untimed warm-up

	// Phase 2: closed loop.
	closed := lh.runFor(r.phase(closedShare))
	r.collectLarson(lh, "closed loop")
	r.reportClosed(closed)
	var live uint64
	for _, b := range lh.held() {
		live += b.size
	}
	r.rep.set("space_amp", float64(lh.heap.Used())/float64(live))
	r.rep.set("space.used_bytes", float64(lh.heap.Used()))
	r.rep.set("space.live_user_bytes", float64(live))

	r.lap("closed loop")

	// Phase 3: open loop, one request = one burst of larsonBurst ops.
	var opens []openResult
	for i, rate := range r.w.rates {
		opens = append(opens, lh.openLoop(rate, r.phase(openShares[i])))
		r.collectLarson(lh, fmt.Sprintf("open loop %d/s", rate))
	}
	r.reportOpen(opens)
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.rep.set("peak_rss_mb", float64(rss)/(1<<20))

	r.lap("open loop")

	// Phase 4: crash. After the cycles with traffic, idle drops time
	// the same recovery again; the fastest of them all is reported.
	var recoverMs []float64
	for cycle := 0; cycle < crashCycles+2*idleRestarts; cycle++ {
		if cycle < crashCycles {
			lh.runFor(r.phase(crashShare))
			r.collectLarson(lh, "crash traffic")
		}
		d, err := lh.crashAndRecover()
		if err != nil {
			r.violate("crash cycle %d: DURABILITY: %v", cycle, err)
			break
		}
		recoverMs = append(recoverMs, float64(d.Nanoseconds())/1e6)
	}
	fmt.Printf("dropped without Close %d times: core.Open (ms) %.3f; %d held blocks allocated and intact each time\n",
		len(recoverMs), recoverMs, len(lh.held()))
	r.rep.set("recovery_ms", tenthMean(recoverMs, false))
	r.rep.set("recover.heap_open_ms", median(recoverMs))
	r.lap("crash")

	// Phase 5: the virtual-time twin.
	if err := r.simTwin(r.simLarson); err != nil {
		return err
	}
	r.lap("sim twin")
	if r.trace {
		defer r.lap("ladder")
		return r.ladderLarson()
	}
	return nil
}

// simLarson replays the streams on the simulated device from a single
// goroutine: the workers take turns op by op, so hand-overs and remote
// frees happen in a fixed order and virtual time repeats exactly.
// simOps is the total across workers.
func (r *run) simLarson() (simResult, error) {
	dev := pmem.New(pmem.Config{Size: r.w.heapSize})
	h, err := core.Create(dev, heapOptions())
	if err != nil {
		return simResult{}, err
	}
	lh := &larsonHeap{heap: h}
	for i := 0; i < r.conns; i++ {
		lh.workers = append(lh.workers, newLarsonWorker(r.seed, i))
	}
	for i, w := range lh.workers {
		w.dev, w.th = dev, h.NewThread()
		w.out = lh.workers[(i+1)%len(lh.workers)].inbox
	}
	for _, w := range lh.workers {
		w.fill()
	}
	var before []pmem.Stats
	var t0 int64
	for _, w := range lh.workers {
		before = append(before, w.th.Ctx().Local())
		t0 += w.th.Ctx().Now
	}
	rounds := r.w.simOps / len(lh.workers)
	for i := 0; i < rounds; i++ {
		for _, w := range lh.workers {
			w.step()
		}
	}
	res := simResult{ops: rounds * len(lh.workers), clockNS: -t0}
	for i, w := range lh.workers {
		if w.failed > 0 {
			return simResult{}, fmt.Errorf("worker %d: %d failed ops (first: %s)", w.id, w.failed, w.firstErr)
		}
		c := w.th.Ctx()
		res.clockNS += c.Now
		res.stats = addStats(res.stats, addStats(c.Local(), before[i], -1), 1)
	}
	// Drop the threads without Close, as the crash phase does, and
	// recover in virtual time; every held block must survive.
	h2, err := res.recover(dev)
	if err != nil {
		return simResult{}, err
	}
	for _, b := range lh.held() {
		if !h2.BlockAllocated(b.addr) {
			return simResult{}, fmt.Errorf("sim twin: held block %#x is free after recovery", b.addr)
		}
	}
	return res, nil
}
