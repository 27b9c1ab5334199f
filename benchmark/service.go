package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nvalloc/internal/traffic"
)

// run is one invocation: one workload, one seed.
type run struct {
	w        *workload
	seed     uint64
	seconds  float64
	conns    int
	trace    bool
	nvkvBin  string
	workDir  string
	pool     *valuePool
	zipf     *zipfGen
	rep      *report
	traceOut string

	lapAt   time.Time
	counts  counts
	correct bool
	// violations lists durability and verification failures; any entry
	// makes the run incorrect and the exit code non-zero.
	violations []string
}

// lap prints how long the part of the run since the previous lap took,
// so that a run over its time budget shows where the time went.
func (r *run) lap(name string) {
	now := time.Now()
	if !r.lapAt.IsZero() {
		fmt.Printf("wall %-12s %7.3f s\n", name, now.Sub(r.lapAt).Seconds())
	}
	r.lapAt = now
}

func (r *run) violate(format string, args ...any) {
	r.correct = false
	msg := fmt.Sprintf(format, args...)
	r.violations = append(r.violations, msg)
	fmt.Printf("VIOLATION: %s\n", msg)
}

// Phase lengths as shares of -seconds. The closed loop gets the most
// because ops_per_s and cpu_us_per_op need it to repeat; of the open
// loop's three rates the middle one, which lat_p50_us comes from, gets
// four times the others; the crash phase's traffic only has to fill
// the pipelines before each kill.
const (
	closedShare = 0.50
	crashShare  = 0.03 // per cycle
	crashCycles = 3
	// idleRestarts more kill -9/restart rounds follow the crash cycles
	// with no traffic in between: recovery does the same work on the
	// same heap, and nine samples find a quiet moment where three do
	// not.
	idleRestarts = 6
	// Set-up is measured several times per run and the median
	// reported, since one preload is too noisy to gate on: at least
	// minSetups times, and up to maxSetups while they are cheap. Most
	// of the noise is the server's kernel time, the page faults of a
	// fresh heap file: between one set-up and the next it varies from
	// 0.3 s to over 1 s on kv-churn, where user time stays within 10 %.
	minSetups   = 5
	maxSetups   = 15
	cheapSetups = 4 * time.Second
	// On a bad quarter of an hour a kv-large set-up has taken 20 s where
	// it usually takes 0.2 s. The phase stops asking for more samples
	// after setupBudget, so that such a run still ends within the
	// driver's 180 s.
	setupBudget = 30 * time.Second
	// The first warmSetups set-ups of a process are not timed: they
	// take 1.3 to 3 times as long as the later ones, by however much
	// the process before left the kernel to tidy up.
	warmSetups = 1
)

// moreSetups reports whether another set-up should be measured after
// the ones in times, spent into the set-up phase.
func moreSetups(times []setupTime, spent time.Duration) bool {
	var total time.Duration
	for _, t := range times {
		total += t.wall
	}
	if spent > setupBudget {
		return false
	}
	return len(times) < minSetups || (len(times) < maxSetups && total < cheapSetups)
}

// openShares are the open loop's shares of -seconds, per rate.
var openShares = [3]float64{0.06, 0.24, 0.06}

// shorten scales -seconds until the returned function is called.
func (r *run) shorten(scale float64) (restore func()) {
	seconds := r.seconds
	r.seconds *= scale
	return func() { r.seconds = seconds }
}

func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// env is a running server with connected, preloaded clients.
type env struct {
	srv      *server
	heapFile string
	clients  []*client
	streams  []*stream
	model    model
}

func (e *env) teardown() {
	for _, c := range e.clients {
		c.close()
	}
	e.srv.kill()
	os.Remove(e.heapFile)
}

func (e *env) dialAll() error {
	for _, c := range e.clients {
		c.close()
		if err := c.dial(e.srv.addr); err != nil {
			return err
		}
	}
	return nil
}

// setupTime is one set-up: its wall time and the time of the reference
// work done beside it.
type setupTime struct{ wall, ref time.Duration }

// reportSetup reports setup_s from the run's timed set-ups. A set-up's
// wall time moves with the machine's speed of the moment, by a quarter
// between one ten minutes and the next and by half on a bad day. The
// reference work beside it moves the same way, so each set-up is taken
// in units of its own reference, the median of those ratios is what
// repeats, and the workload's setupRef scales it back to seconds: the
// set-up time at the sizing machine's quiet-hour speed. The wall time
// as the clock read it is reported beside it.
func (r *run) reportSetup(times []setupTime) {
	var rel, wall, ref []float64
	for _, t := range times {
		rel = append(rel, t.wall.Seconds()/t.ref.Seconds())
		wall = append(wall, t.wall.Seconds())
		ref = append(ref, t.ref.Seconds())
	}
	r.rep.set("setup_s", median(rel)*r.w.setupRef.Seconds())
	r.rep.set("setup.spread_ratio", spread(rel))
	r.rep.set("setup.wall_s", median(wall))
	r.rep.set("setup.ref_s", median(ref))
}

// setup spawns a server on a fresh heap file and preloads it over the
// wire, every connection loading its own shard. Its wall time runs from
// exec to the last preload acknowledgement; its reference work is what
// the load generator (this process) did meanwhile, in CPU time: the
// same bytes for every set-up of the workload, encoded, written, read
// and checked on the same cores at the same moment.
func (r *run) setup(n int) (*env, setupTime, error) {
	e := &env{heapFile: filepath.Join(r.workDir, fmt.Sprintf("heap-%d", n)), model: make(model, r.w.universe)}
	os.Remove(e.heapFile)
	start, cpu := time.Now(), selfCPU()
	srv, err := spawnServer(r.nvkvBin, e.heapFile, r.w.heapSize)
	if err != nil {
		return nil, setupTime{}, err
	}
	e.srv = srv
	for i := 0; i < r.conns; i++ {
		e.clients = append(e.clients, newClient(i, r.conns, r.pool, e.model))
		e.streams = append(e.streams, newStream(r.w, r.zipf, r.seed, i, r.conns))
	}
	if err := e.dialAll(); err != nil {
		e.teardown()
		return nil, setupTime{}, err
	}
	errs := make([]error, r.conns)
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			ops := make([]op, 0, batchMax)
			for k := uint64(c.id); k < r.w.preload; k += uint64(r.conns) {
				ops = append(ops, r.w.preloadOp(r.seed, k))
				if len(ops) == cap(ops) || k+uint64(r.conns) >= r.w.preload {
					if _, err := c.batch(ops, 0); err != nil {
						errs[c.id] = fmt.Errorf("conn %d: preload: %w", c.id, err)
						return
					}
					ops = ops[:0]
				}
			}
		}(c)
	}
	wg.Wait()
	t := setupTime{wall: time.Since(start), ref: selfCPU() - cpu}
	for _, err := range errs {
		if err != nil {
			e.teardown()
			return nil, setupTime{}, err
		}
	}
	if t.ref <= 0 {
		e.teardown()
		return nil, setupTime{}, fmt.Errorf("set-up: getrusage reports no CPU time for the load generator")
	}
	return e, t, nil
}

// collect folds every client's counters into the run and reports the
// first verification failure, if any.
func (r *run) collect(e *env, phase string) {
	for _, c := range e.clients {
		r.counts.add(c.counts)
		if f := c.counts.failed(); f > 0 {
			r.violate("%s: conn %d: %d failed ops (first: %s)", phase, c.id, f, c.firstMismatch)
		}
		c.counts = counts{}
		c.firstMismatch = ""
	}
}

// runService drives the five phases of a kv-* workload.
func (r *run) runService() error {
	if r.trace {
		// The traced run spends most of its time on the ladder; the
		// wall-clock phases only feed the client.*, server.* and
		// recover.* diagnostics.
		defer r.shorten(0.4)()
	}

	// Phase 1: set-up.
	r.lap("")
	var e *env
	var setups []setupTime
	for i, t0 := 0, time.Now(); len(setups) == 0 || (!r.trace && moreSetups(setups, time.Since(t0))); i++ {
		if e != nil {
			r.collect(e, "preload")
			e.teardown()
		}
		var t setupTime
		var err error
		if e, t, err = r.setup(i); err != nil {
			return err
		}
		if i >= warmSetups || r.trace {
			setups = append(setups, t)
		}
	}
	defer func() { e.teardown() }()
	r.reportSetup(setups)
	r.collect(e, "preload")
	r.lap("set-up")
	pid := e.srv.pid()
	serverCPU := func() time.Duration { return procRunTime(pid) }
	closedLoop(e.clients, e.streams, r.phase(0.03), serverCPU) // untimed warm-up
	for _, s := range e.streams {
		s.half = 0
	}

	// Phase 2: closed loop.
	u0, s0, err := procCPU(pid)
	if err != nil {
		return err
	}
	closed := closedLoop(e.clients, e.streams, r.phase(closedShare), serverCPU)
	u1, s1, err := procCPU(pid)
	if err != nil {
		return err
	}
	r.collect(e, "closed loop")
	if closed.acked == 0 {
		return fmt.Errorf("closed loop acknowledged nothing")
	}
	r.reportClosed(closed)
	if cpu := (u1 - u0) + (s1 - s0); cpu > 0 {
		r.rep.set("server.sys_cpu_share", float64(s1-s0)/float64(cpu))
	} else {
		r.rep.set("server.sys_cpu_share", 0)
	}
	st, err := e.clients[0].stats()
	if err != nil {
		return fmt.Errorf("STATS: %w", err)
	}
	liveKeys, liveBytes := e.model.liveBytes()
	if st["keys"] != liveKeys {
		r.violate("closed loop: server holds %d keys, the client acknowledged %d", st["keys"], liveKeys)
	}
	r.rep.set("space_amp", float64(st["used_bytes"])/float64(liveBytes))
	r.rep.set("space.used_bytes", float64(st["used_bytes"]))
	r.rep.set("space.live_user_bytes", float64(liveBytes))
	r.lap("closed loop")

	// Phase 3: open loop.
	var opens []openResult
	for i, rate := range r.w.rates {
		for _, s := range e.streams {
			s.half = 0
		}
		o, err := openLoop(e.clients, e.streams, rate, r.phase(openShares[i]))
		r.collect(e, fmt.Sprintf("open loop %d/s", rate))
		if err != nil {
			return err
		}
		opens = append(opens, o)
	}
	r.reportOpen(opens)
	rss, err := procPeakRSS(e.srv.pid())
	if err != nil {
		return err
	}
	r.rep.set("peak_rss_mb", float64(rss)/(1<<20))

	r.lap("open loop")

	// Phase 4: crash.
	if err := r.crashPhase(e); err != nil {
		return err
	}
	r.lap("crash")

	// Recovery, layer by layer: with the server gone, open the same
	// heap file in this process.
	if r.trace {
		e.srv.kill()
		if err := r.recoverInProcess(e.heapFile); err != nil {
			return err
		}
	}
	return nil
}

// reportClosed turns the closed loop's windows into cpu_rel_per_op (the
// median window: CPU of the code under test in units of the reference
// work of the same window) and the raw wall-clock figures: ops_per_s
// and cpu_us_per_op over the quietest tenth of the windows, and the
// whole-phase medians beside them.
func (r *run) reportClosed(closed closedResult) {
	rates, costs := closed.opsPerSec(), closed.cpuPerOpUs()
	r.rep.set("cpu_rel_per_op", median(closed.cpuRel()))
	r.rep.set("ops_per_s", tenthMean(rates, true))
	r.rep.set("cpu_us_per_op", tenthMean(costs, false))
	r.rep.set("client.ops_per_s_median", median(rates))
	r.rep.set("client.slice_iqr_ratio", spread(rates))
	r.rep.set("client.cpu_us_per_op_median", median(costs))
	r.rep.set("client.cpu_rel_iqr_ratio", spread(closed.cpuRel()))
	r.rep.note("closed loop: %d windows of %v, %d ops acknowledged", len(closed.windows), sampleEvery, closed.acked)
}

// reportOpen turns the three open-loop runs into lat_p50_us (middle
// rate) and the client.* diagnostics.
func (r *run) reportOpen(opens []openResult) {
	const limitUs = 5000
	mid := opens[len(opens)/2]
	r.rep.set("lat_p50_us", tenthMean(mid.windowP50, false))
	r.rep.set("client.lat_p50_all_us", quantile(mid.latencies, 0.50))
	p99, used99 := tailAt(mid.latencies, 0.99)
	p999, used999 := tailAt(mid.latencies, 0.999)
	r.rep.set("client.lat_p99_us", p99)
	r.rep.set("client.lat_p999_us", p999)
	late, _ := tailAt(mid.lateness, 0.99)
	r.rep.set("client.gen_late_p99_us", late)
	r.rep.note("open loop at %d/s: %d latency samples; p99 column is p%g, p999 column is p%g (highest percentiles with ten samples beyond them)",
		mid.rate, len(mid.latencies), used99*100, used999*100)
	if late > 1000 {
		r.rep.note("generator lateness p99 %.0f us exceeds 1 ms: open-loop latency is unresolved on this run", late)
	}
	okRate := 0
	for _, o := range opens {
		p50 := quantile(o.latencies, 0.5)
		p99, _ := tailAt(o.latencies, 0.99)
		gl, _ := tailAt(o.lateness, 0.99)
		fmt.Printf("open loop %7d/s: sent %d answered %d p50 %.1f us p99 %.1f us gen-late p99 %.1f us ok=%v\n",
			o.rate, o.sent, o.answered, p50, p99, gl, o.ok(limitUs))
		if o.ok(limitUs) && o.rate > okRate {
			okRate = o.rate
		}
	}
	r.rep.set("client.rate_ok_per_s", float64(okRate))
}

// crashPhase runs crashCycles rounds of {write traffic, kill -9 with
// the pipelines full, restart on the same heap file, verify every
// acknowledged mutation}, then idleRestarts more kill/restart rounds
// for timing only. recovery_ms is the fastest exec-to-listening time:
// every restart recovers a heap of the same size, and interference
// only ever adds to it.
func (r *run) crashPhase(e *env) error {
	var readyMs, inProcMs []float64
	inflight := 0
	var keys int64
	restart := func(cycle int) error {
		srv, err := spawnServer(r.nvkvBin, e.heapFile, r.w.heapSize)
		if err != nil {
			r.violate("crash cycle %d: restart failed: %v", cycle, err)
			return err
		}
		e.srv = srv
		readyMs = append(readyMs, float64(srv.ready.Microseconds())/1e3)
		inProcMs = append(inProcMs, float64(srv.recovered.Microseconds())/1e3)
		keys = srv.keys
		return nil
	}
	noCPU := func() time.Duration { return 0 }
	for cycle := 0; cycle < crashCycles; cycle++ {
		for _, s := range e.streams {
			s.half, s.writesOnly = cycle&1, true
		}
		killer := time.AfterFunc(r.phase(crashShare), e.srv.kill)
		res := closedLoop(e.clients, e.streams, time.Hour, noCPU)
		killer.Stop()
		for _, s := range e.streams {
			s.writesOnly = false
		}
		inflight += res.inflight
		// The kill is the only expected failure here.
		for _, c := range e.clients {
			if f := c.counts.failed(); f > 0 {
				r.violate("crash cycle %d: conn %d: %d failed ops before the kill (first: %s)", cycle, c.id, f, c.firstMismatch)
			}
			r.counts.add(c.counts)
			c.counts = counts{}
		}
		if restart(cycle) != nil {
			return nil
		}
		if err := e.dialAll(); err != nil {
			return err
		}
		// Cycles before the last check what changed since the previous
		// check; the last one checks every key the run ever settled.
		checked, skipped, err := r.verifyAcked(e, cycle < crashCycles-1)
		fmt.Printf("crash cycle %d: killed with %d in flight, restart %.1f ms (in-process %.1f ms, %d keys), oracle checked %d keys, skipped %d\n",
			cycle, res.inflight, readyMs[cycle], inProcMs[cycle], keys, checked, skipped)
		if err != nil {
			r.violate("crash cycle %d: DURABILITY: %v", cycle, err)
			return nil
		}
		if err := r.heal(e); err != nil {
			return err
		}
	}
	for i := 0; i < idleRestarts; i++ {
		for _, c := range e.clients {
			c.close()
		}
		e.srv.kill()
		if restart(crashCycles+i) != nil {
			return nil
		}
	}
	fmt.Printf("restarts (ms): %.1f\n", readyMs)
	r.rep.set("recovery_ms", tenthMean(readyMs, false))
	r.rep.set("recover.exec_to_listen_ms", median(readyMs))
	r.rep.set("recover.in_child_ms", tenthMean(inProcMs, false))
	r.rep.set("recover.keys", float64(keys))
	r.rep.set("client.inflight_at_kill", float64(inflight)/crashCycles)
	return nil
}

// verifyAcked runs traffic.VerifyAcked over every client's shard, each
// on its own fresh connection.
func (r *run) verifyAcked(e *env, onlyTouched bool) (checked, skipped int, err error) {
	type out struct {
		checked, skipped int
		err              error
	}
	outs := make([]out, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", e.srv.addr, 5*time.Second)
			if err != nil {
				outs[i].err = err
				return
			}
			defer conn.Close()
			acked := c.ackedMap(onlyTouched)
			outs[i].checked, outs[i].skipped, outs[i].err = traffic.VerifyAcked(conn, acked, c.tainted)
			// Tainted keys absent from acked were skipped all the same.
			c.clearTouched()
		}(i, c)
	}
	wg.Wait()
	for _, o := range outs {
		checked += o.checked
		skipped += o.skipped
		if o.err != nil && err == nil {
			err = o.err
		}
	}
	r.counts.attempted += uint64(checked)
	return checked, skipped, err
}

// heal overwrites every tainted key so its state is known again.
func (r *run) heal(e *env) error {
	for _, c := range e.clients {
		keys := make([]uint64, 0, len(c.tainted))
		for k := range c.tainted {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		ops := make([]op, 0, len(keys))
		for _, k := range keys {
			ops = append(ops, r.w.preloadOp(r.seed+1, k))
		}
		c.tainted = map[uint64]bool{}
		for len(ops) > 0 {
			n := min(len(ops), pipelineDepth)
			if _, err := c.batch(ops[:n], 0); err != nil {
				return fmt.Errorf("conn %d: heal: %w", c.id, err)
			}
			ops = ops[n:]
		}
	}
	return nil
}
