package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// pipelineDepth is the closed loop's commands in flight per connection.
const pipelineDepth = 32

// replyTimeout is how long the open loop waits for stragglers before
// counting them unanswered.
const replyTimeout = 5 * time.Second

// sampleEvery is the length of one measurement window. A phase is cut
// into windows so that the quiet ones can be told from the disturbed.
const sampleEvery = 50 * time.Millisecond

// window is one sample interval of a closed-loop phase: how long it
// lasted, how many ops were acknowledged in it, how much CPU the code
// under test used and how much the benchmark's own reference work used.
type window struct {
	dur time.Duration
	ops uint64
	cpu time.Duration
	// ref is the CPU time of the reference work and refOps how many
	// ops of it that was.
	ref    time.Duration
	refOps uint64
}

// totals are the running sums a window is the difference of. On the
// kv-* workloads cpu is the server child's CPU time and ref the
// harness's own (the load generator's, for the same ops); on
// alloc-larson they are the time spent in steps on the allocator and in
// steps on the reference allocator.
type totals struct {
	ops, refOps uint64
	cpu, ref    time.Duration
}

// closedResult is one closed-loop phase.
type closedResult struct {
	windows []window
	acked   uint64
	// inflight is the number of commands unanswered when the
	// connections died (the crash phase; 0 otherwise).
	inflight int
}

// opsPerSec and cpuPerOpUs list the windows' throughput and CPU cost.
func (r closedResult) opsPerSec() (out []float64) {
	for _, w := range r.windows {
		out = append(out, float64(w.ops)/w.dur.Seconds())
	}
	return
}

func (r closedResult) cpuPerOpUs() (out []float64) {
	for _, w := range r.windows {
		if w.ops > 0 {
			out = append(out, float64(w.cpu.Nanoseconds())/1e3/float64(w.ops))
		}
	}
	return
}

// cpuRel lists, per window, the CPU time per op of the code under test
// in units of the reference work's CPU time per op in the same window.
func (r closedResult) cpuRel() (out []float64) {
	for _, w := range r.windows {
		if w.ops > 0 && w.refOps > 0 && w.ref > 0 {
			out = append(out, (float64(w.cpu)/float64(w.ops))/(float64(w.ref)/float64(w.refOps)))
		}
	}
	return
}

// sampleWindows records a window every sampleEvery until stop closes.
// read returns the totals as of now, read back to back, so a window's
// CPU belongs to its ops up to the few microseconds between the reads.
func sampleWindows(stop <-chan struct{}, read func() totals) []window {
	var out []window
	t, prev := time.Now(), read()
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		t1, cur := time.Now(), read()
		out = append(out, window{dur: t1.Sub(t), ops: cur.ops - prev.ops, cpu: cur.cpu - prev.cpu,
			ref: cur.ref - prev.ref, refOps: cur.refOps - prev.refOps})
		t, prev = t1, cur
	}
}

// runSampled runs phase (which must return when its work is over) with
// a window sampler beside it.
func runSampled(read func() totals, phase func()) []window {
	stop := make(chan struct{})
	done := make(chan []window)
	go func() { done <- sampleWindows(stop, read) }()
	phase()
	close(stop)
	return <-done
}

// closedLoop drives every client for dur: each fills its pipeline,
// flushes, reads every reply and repeats, so a slow server is offered
// less load. serverCPU reads the CPU time of the server process. The
// loop also ends when a connection dies, which is how the crash phase
// stops it.
func closedLoop(clients []*client, streams []*stream, dur time.Duration, serverCPU func() time.Duration) closedResult {
	var inflight atomic.Int64
	read := func() totals {
		var n uint64
		for _, c := range clients {
			n += c.progress.Load()
		}
		return totals{ops: n, refOps: n, cpu: serverCPU(), ref: selfCPU()}
	}
	n0, t0 := read().ops, time.Now()
	windows := runSampled(read, func() {
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(c *client, s *stream) {
				defer wg.Done()
				ops := make([]op, pipelineDepth)
				for {
					now := time.Since(t0)
					if now >= dur {
						return
					}
					if now >= dur/2 {
						s.half = 1
					}
					for j := range ops {
						ops[j] = s.next()
					}
					n, err := c.batch(ops, now)
					c.progress.Add(uint64(n))
					if err != nil {
						inflight.Add(int64(len(ops) - n))
						return
					}
				}
			}(clients[i], streams[i])
		}
		wg.Wait()
	})
	return closedResult{windows: windows, acked: read().ops - n0, inflight: int(inflight.Load())}
}

// windowMedians merges the connections' samples window by window and
// returns each window's median.
func windowMedians(win [][][]float64) []float64 {
	var out []float64
	for w := range win[0] {
		var all []float64
		for i := range win {
			all = append(all, win[i][w]...)
		}
		if len(all) > 0 {
			out = append(out, median(all))
		}
	}
	return out
}

// latencyWindows makes the per-connection sample buckets of an
// open-loop run of length dur: one per sampleEvery.
func latencyWindows(conns int, dur time.Duration) [][][]float64 {
	win := make([][][]float64, conns)
	for i := range win {
		win[i] = make([][]float64, max(int(dur/sampleEvery), 1))
	}
	return win
}

// bucket files latency l of an arrival due at due.
func bucket(win [][]float64, due time.Duration, l float64) {
	if w := int(due / sampleEvery); w < len(win) {
		win[w] = append(win[w], l)
	}
}

// openResult is the open loop at one arrival rate.
type openResult struct {
	rate int
	// latencies (µs, sorted) run from each op's intended send time to
	// the arrival of its reply; lateness (µs, sorted) is how far behind
	// its schedule the generator wrote each op.
	latencies, lateness []float64
	// windowP50 holds the median latency (µs) of the arrivals due in
	// each sampleEvery-long window of the run.
	windowP50      []float64
	sent, answered uint64
	// completedInWindow counts replies that arrived before the last
	// arrival was due; a server keeping up answers nearly all of them.
	completedInWindow uint64
}

// ok reports whether the rate was sustained: p99 within limit, nothing
// unanswered and no backlog left growing at the end of the window.
func (r openResult) ok(limitUs float64) bool {
	p99, _ := tailAt(r.latencies, 0.99)
	return r.sent > 0 && r.answered == r.sent && p99 <= limitUs &&
		float64(r.completedInWindow) >= 0.99*float64(r.sent)
}

// spinWindow is how close a due time must be before the generator
// stops sleeping and spins on the monotonic clock. It is zero unless
// the machine has a core to spare beyond the server's and the readers'
// (see spinWindowFor): a spinning generator owns a core, and with as
// many cores as connections that core is the server's, whose threads
// then queue behind the spinner for a scheduler quantum (measured on 2
// cores: p90 of 3 ms at 30 % load, against 0.6 ms with a sleeping
// generator).
var spinWindow = spinWindowFor(runtime.NumCPU(), min(runtime.NumCPU(), 4))

func spinWindowFor(cores, conns int) time.Duration {
	if cores > 2*conns {
		return time.Millisecond
	}
	return 0
}

// waitUntil returns the phase clock once it has reached due.
func waitUntil(t0 time.Time, due time.Duration) time.Duration {
	for {
		now := time.Since(t0)
		if now >= due {
			return now
		}
		if d := due - now - spinWindow; d > 0 {
			time.Sleep(d)
		}
	}
}

// openLoop offers rate ops/s for dur on a fixed arrival schedule:
// arrival i is due at i/rate and goes to connection i mod conns. One
// generator goroutine serves every connection, so pacing costs one
// spinning core however many connections there are; one reader per
// connection matches replies to arrivals in order. Latency is taken
// from the due time, so a stall anywhere (generator, socket, server)
// lands on the requests it delayed.
func openLoop(clients []*client, streams []*stream, rate int, dur time.Duration) (openResult, error) {
	res := openResult{rate: rate}
	total := int(float64(rate) * dur.Seconds())
	interval := time.Duration(float64(time.Second) / float64(rate))
	// Each queue holds every arrival its connection can get, so the
	// generator never blocks on a reader.
	queues := make([]chan pend, len(clients))
	lat := make([][]float64, len(clients))
	win := latencyWindows(len(clients), dur)
	var inWindow atomic.Uint64
	var readErr atomic.Value
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range clients {
		queues[i] = make(chan pend, total/len(clients)+1)
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			c.conn.SetReadDeadline(t0.Add(dur + replyTimeout))
			for p := range queues[i] {
				if readErr.Load() != nil {
					c.counts.unanswered++
					continue
				}
				if err := c.recv(p); err != nil {
					readErr.Store(fmt.Errorf("conn %d: open loop: %w", c.id, err))
					c.counts.unanswered++
					c.taint([]pend{p})
					continue
				}
				now := time.Since(t0)
				if now < dur {
					inWindow.Add(1)
				}
				l := float64(now-p.due) / 1e3
				lat[i] = append(lat[i], l)
				bucket(win[i], p.due, l)
			}
			c.conn.SetReadDeadline(time.Time{})
		}(i, c)
	}

	late := make([]float64, 0, total)
	var sendErr error
	unflushed := 0
	flush := func() {
		for _, c := range clients {
			if c.bw.Buffered() > 0 {
				if err := c.bw.Flush(); err != nil && sendErr == nil {
					sendErr = fmt.Errorf("conn %d: open loop: %w", c.id, err)
				}
			}
		}
		unflushed = 0
	}
	for n := 0; n < total && sendErr == nil; n++ {
		due := time.Duration(n) * interval
		if due >= dur/2 {
			for _, s := range streams {
				s.half = 1
			}
		}
		now := waitUntil(t0, due)
		i := n % len(clients)
		queues[i] <- clients[i].send(streams[i].next(), due)
		late = append(late, float64(now-due)/1e3)
		// A generator running behind finds the next arrival already
		// due: it writes that one too before paying for the flush.
		unflushed++
		if behind := time.Since(t0) >= due+interval; !behind || unflushed >= pipelineDepth {
			flush()
		}
	}
	flush()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()

	for i := range clients {
		res.latencies = append(res.latencies, lat[i]...)
	}
	res.windowP50 = windowMedians(win)
	sort.Float64s(res.latencies)
	sort.Float64s(late)
	res.lateness = late
	res.sent = uint64(len(late))
	res.answered = uint64(len(res.latencies))
	res.completedInWindow = inWindow.Load()
	if sendErr != nil {
		return res, sendErr
	}
	if err, _ := readErr.Load().(error); err != nil {
		return res, err
	}
	return res, nil
}
