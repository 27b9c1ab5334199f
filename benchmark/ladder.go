package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

// The ladder is the traced run: the same seed's op stream replayed in
// process against one public layer at a time, each rung on a fresh heap
// with the workload's preload, recording one span per batch of
// ladderBatch ops. A layer's self time is its rung minus the rungs it
// calls; by construction the self times add up to rung R6.
//
//	R1 core    Malloc/Free of the stream's record sizes
//	R2 phash   Get/Put/Delete of its key digests
//	R3 store   Set/Get/Del/Expire
//	R4 resp    command encode, ReadCommand, ReadReply, from memory
//	R5 server  ServeConn over net.Pipe
//	R6 server  Serve over loopback TCP, in process
const ladderBatch = 64

var rungNames = []string{"R1.core", "R2.phash", "R3.store", "R4.resp", "R5.server.pipe", "R6.server.tcp"}

// span is one traced batch. Batch is shared across rungs: batch i of
// every rung is the same 64 ops. Parent names the rung above.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Batch   int    `json:"batch"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// rung runs f over ops in batches, one span each, and returns the mean
// wall time per op.
func (t *tracer) rung(level int, ops []op, f func(batch []op) error) (float64, error) {
	name, parent := rungNames[level], ""
	if level+1 < len(rungNames) {
		parent = rungNames[level+1]
	}
	var total int64
	for i := 0; i*ladderBatch < len(ops); i++ {
		batch := ops[i*ladderBatch : min((i+1)*ladderBatch, len(ops))]
		start := time.Since(t.t0).Nanoseconds()
		if err := f(batch); err != nil {
			return 0, fmt.Errorf("%s batch %d: %w", name, i, err)
		}
		end := time.Since(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Name: name, Parent: parent, Batch: i, StartNS: start, EndNS: end})
		total += end - start
	}
	return float64(total) / float64(len(ops)), nil
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// recordSize is the blob nvkv.Store allocates for one pair.
func recordSize(key []byte, val int) uint64 { return uint64(16 + len(key) + val + 4) }

// digest is the store's key hash (FNV-1a 64), which is what phash sees.
func digest(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// mallocs reads the Go heap's allocation counters.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// ladder runs rungs R1-R6 for a kv-* workload and reports the per-layer
// metrics that come from them. Each heap is dropped as soon as its rung
// and the detail timings that reuse it are done.
func (r *run) ladder() error {
	t := &tracer{t0: time.Now()}
	var perOp [6]float64
	nOps := float64(r.w.ladderOps)

	// R1: the record allocations alone.
	he, s, ops, err := r.ladderHeap(false)
	if err != nil {
		return err
	}
	f, err := r.coreRung(he, s)
	if err != nil {
		return err
	}
	if perOp[0], err = t.rung(0, ops, f); err != nil {
		return err
	}
	if err := r.detailCore(he); err != nil {
		return err
	}
	r.lap("R1")

	// R2: the index alone.
	if he, s, ops, err = r.ladderHeap(false); err != nil {
		return err
	}
	m, f, err := r.phashRung(he, s)
	if err != nil {
		return err
	}
	if perOp[1], err = t.rung(1, ops, f); err != nil {
		return err
	}
	if err := r.detailPhash(m, he); err != nil {
		return err
	}
	r.lap("R2")

	// R3: the store, whose heap also supplies the allocator's counters.
	if he, s, ops, err = r.ladderHeap(true); err != nil {
		return err
	}
	before := snapHeap(he)
	if perOp[2], err = t.rung(2, ops, func(batch []op) error {
		for _, o := range batch {
			if err := s.storeOp(he.store, he.th, o); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.reportHeap(he, before, len(ops))
	r.reportShape(s, ops)
	r.rep.set("phash.load_factor", float64(he.store.Len())/float64((1<<15)*phash.Slots))
	r.lap("R3")
	if err := r.detailStore(he, s); err != nil {
		return err
	}
	r.lap("R3 detail")

	// R4: the wire format alone.
	resp, err := r.respRung(t, ops)
	if err != nil {
		return err
	}
	perOp[3] = resp.perOp
	r.lap("R4")

	// R5 and R6: the server, over an in-memory pipe and over loopback.
	var serverAllocs float64
	for level := 4; level <= 5; level++ {
		he, s, ops, err := r.ladderHeap(true)
		if err != nil {
			return err
		}
		c, stop, err := r.serveInProcess(he, s, level == 5)
		if err != nil {
			return err
		}
		m0, _ := mallocs()
		perOp[level], err = t.rung(level, ops, func(batch []op) error {
			n, err := c.batch(batch, 0)
			if err == nil && n != len(batch) {
				err = fmt.Errorf("%d of %d replies", n, len(batch))
			}
			return err
		})
		m1, _ := mallocs()
		stop()
		if err != nil {
			return err
		}
		if f := c.counts.failed(); f > 0 {
			r.violate("%s: %d failed ops (first: %s)", rungNames[level], f, c.firstMismatch)
		}
		r.counts.add(c.counts)
		if level == 4 {
			serverAllocs = float64(m1-m0) / nOps
		}
		r.lap(rungNames[level])
	}

	for i, ns := range perOp {
		r.rep.set("ladder."+rungNames[i]+"_ns_per_op", ns)
	}
	r.rep.set("resp.parse_ns_per_cmd", resp.parseNS)
	r.rep.set("resp.reply_ns_per_cmd", resp.replyNS)
	r.rep.set("resp.go_allocs_per_cmd", resp.allocs)
	r.rep.set("resp.go_bytes_per_cmd", resp.bytes)
	r.rep.set("store.self_ns_per_op", perOp[2]-perOp[1]-perOp[0])
	r.rep.set("server.pipe_self_ns_per_op", perOp[4]-perOp[3]-perOp[2])
	r.rep.set("server.tcp_self_ns_per_op", perOp[5]-perOp[4])
	r.rep.set("server.go_allocs_per_op", serverAllocs-resp.allocs)
	// R6 is one connection in this process; the untraced figure is
	// every connection against the server child.
	r.rep.set("trace.overhead_ratio", 1-(1e9/perOp[5])/r.rep.values["ops_per_s"])
	if r.traceOut != "" {
		return t.write(r.traceOut)
	}
	return nil
}

// ladderHeap makes a rung's private heap (with a store when asked) and
// the session and ops to replay on it.
func (r *run) ladderHeap(withStore bool) (*heapEnv, *session, []op, error) {
	dev, err := newDirectDev(r.w.heapSize)
	if err != nil {
		return nil, nil, nil, err
	}
	he, err := newHeapEnv(dev, withStore)
	if err != nil {
		return nil, nil, nil, err
	}
	s := r.newSession()
	if withStore {
		if err := s.preloadStore(r.seed, he.store, he.th); err != nil {
			return nil, nil, nil, err
		}
	}
	return he, s, s.ops(r.w.ladderOps), nil
}

// coreRung replays only the record allocations the store would make:
// a SET allocates the new record and frees the one it replaces, a DEL
// frees. The index's own blobs belong to R2.
func (r *run) coreRung(he *heapEnv, s *session) (func([]op) error, error) {
	recs := make([]pmem.PAddr, r.w.universe)
	set := func(o op) error {
		rec, err := he.th.Malloc(recordSize(s.keyName(o.key), o.size))
		if err != nil {
			return err
		}
		old := recs[o.key]
		recs[o.key] = rec
		if old != pmem.Null {
			return he.th.Free(old)
		}
		return nil
	}
	for k := uint64(0); k < r.w.preload; k++ {
		if err := set(r.w.preloadOp(r.seed, k)); err != nil {
			return nil, err
		}
	}
	return func(batch []op) error {
		for _, o := range batch {
			switch o.kind {
			case traffic.OpSet:
				if err := set(o); err != nil {
					return err
				}
			case traffic.OpDel:
				if old := recs[o.key]; old != pmem.Null {
					recs[o.key] = pmem.Null
					if err := he.th.Free(old); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}, nil
}

// phashRung replays the index operations the store would make: every
// op looks its digest up, a SET then puts, a DEL of a present key
// deletes.
func (r *run) phashRung(he *heapEnv, s *session) (*phash.Map, func([]op) error, error) {
	m, err := phash.Create(he.heap, he.th, rootSlot, 1<<15, 16)
	if err != nil {
		return nil, nil, err
	}
	digests := make([]uint64, r.w.universe)
	for k := range digests {
		digests[k] = digest(s.keyName(uint64(k)))
	}
	for k := uint64(0); k < r.w.preload; k++ {
		if err := m.Put(he.th, digests[k], k+1); err != nil {
			return nil, nil, err
		}
	}
	return m, func(batch []op) error {
		for _, o := range batch {
			d := digests[o.key]
			_, found := m.Get(he.th, d)
			switch o.kind {
			case traffic.OpSet:
				if err := m.Put(he.th, d, o.key+1); err != nil {
					return err
				}
			case traffic.OpDel:
				if found {
					if _, err := m.Delete(he.th, d); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}, nil
}

// respResult is rung R4 split into its parts.
type respResult struct {
	perOp, parseNS, replyNS float64
	allocs, bytes           float64
}

// encodeReply writes the reply a correct server gives to p, in the
// server's wire form. The server's own encoders are not exported; this
// one exists so that ReadReply has input without a server.
func encodeReply(bw *bufio.Writer, pool *valuePool, p pend) {
	switch p.op.kind {
	case traffic.OpGet:
		if !p.exp.present {
			bw.WriteString("$-1\r\n")
			return
		}
		bw.WriteByte('$')
		bw.WriteString(strconv.Itoa(p.exp.size))
		bw.WriteString("\r\n")
		bw.Write(pool.value(p.exp.pool, p.exp.size))
		bw.WriteString("\r\n")
	case traffic.OpSet:
		bw.WriteString("+OK\r\n")
	default:
		if p.exp.present {
			bw.WriteString(":1\r\n")
		} else {
			bw.WriteString(":0\r\n")
		}
	}
}

// respRung times the protocol with no store and no socket: per batch
// the client-side encode, the server-side ReadCommand and the
// client-side ReadReply plus reply check, all from memory.
func (r *run) respRung(t *tracer, ops []op) (respResult, error) {
	s := r.newSession()
	for k := uint64(0); k < r.w.preload; k++ {
		s.model.apply(r.w.preloadOp(r.seed, k), true)
	}
	var cmds, replies bytes.Buffer
	cw, rw := bufio.NewWriterSize(&cmds, 64<<10), bufio.NewWriterSize(&replies, 64<<10)
	cr, rr := bufio.NewReaderSize(&cmds, 64<<10), bufio.NewReaderSize(&replies, 64<<10)
	var res respResult
	var parse, reply time.Duration
	pends := make([]pend, 0, ladderBatch)
	m0, b0 := mallocs()
	perOp, err := t.rung(3, ops, func(batch []op) error {
		pends = pends[:0]
		for _, o := range batch {
			encodeOp(cw, r.pool, o)
			pends = append(pends, pend{op: o, exp: s.model.apply(o, true)})
		}
		cw.Flush()
		t0 := time.Now()
		for range batch {
			if _, err := nvkv.ReadCommand(cr); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for _, p := range pends {
			encodeReply(rw, r.pool, p)
		}
		rw.Flush()
		t2 := time.Now()
		for _, p := range pends {
			rep, err := nvkv.ReadReply(rr)
			if err == nil {
				err = checkReply(r.pool, p, rep)
			}
			if err != nil {
				return err
			}
		}
		parse += t1.Sub(t0)
		reply += time.Since(t2)
		return nil
	})
	if err != nil {
		return res, err
	}
	m1, b1 := mallocs()
	n := float64(len(ops))
	res.perOp = perOp
	res.parseNS = float64(parse.Nanoseconds()) / n
	res.replyNS = float64(reply.Nanoseconds()) / n
	res.allocs = float64(m1-m0) / n
	res.bytes = float64(b1-b0) / n
	return res, nil
}

// serveInProcess starts an nvkv.Server on he and returns a client
// connected to it, over net.Pipe or loopback TCP, whose model is the
// session's (already preloaded).
func (r *run) serveInProcess(he *heapEnv, s *session, overTCP bool) (*client, func(), error) {
	// The session's thread stays idle while the server's own serves.
	srv := nvkv.NewServer(he.store, nvkv.ServerConfig{})
	c := newClient(0, 1, r.pool, s.model)
	var wg sync.WaitGroup
	if overTCP {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Serve(l) // returns once stop closes the listener
		}()
		if err := c.dial(l.Addr().String()); err != nil {
			srv.Close()
			wg.Wait()
			return nil, nil, err
		}
	} else {
		near, far := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(far)
		}()
		c.attach(near)
	}
	return c, func() {
		c.close()
		srv.Close()
		wg.Wait()
	}, nil
}

// heapSnap is the allocator's public counters at one moment.
type heapSnap struct {
	cacheHits, cacheRefills uint64
	slabCreates, morphs     uint64
	splits, coalesces       uint64
	gcFast, gcSlow          uint64
	dev                     pmem.Stats
}

func snapHeap(he *heapEnv) heapSnap {
	var s heapSnap
	s.cacheHits, s.cacheRefills, _, _ = he.heap.CacheStats()
	s.slabCreates = he.heap.SlabCreates()
	s.morphs, _ = he.heap.MorphStats()
	s.splits, s.coalesces, _ = he.heap.LargeStats()
	if b := he.heap.Blog(); b != nil {
		s.gcFast, s.gcSlow = b.GCCounts()
	}
	s.dev = he.th.Ctx().Local()
	return s
}

// reportHeap reports what the allocator did during a replay of n ops
// on he. The tcache.* pair is the arena slab-extent cache
// (Heap.CacheStats): the thread cache keeps no public counters.
func (r *run) reportHeap(he *heapEnv, before heapSnap, n int) {
	after := snapHeap(he)
	kops := float64(n) / 1000
	hits, refills := float64(after.cacheHits-before.cacheHits), float64(after.cacheRefills-before.cacheRefills)
	ratio := 0.0
	if hits+refills > 0 {
		ratio = hits / (hits + refills)
	}
	r.rep.set("tcache.hit_ratio", ratio)
	r.rep.set("tcache.refills_per_kop", refills/kops)
	r.rep.set("slab.creates_per_kop", float64(after.slabCreates-before.slabCreates)/kops)
	r.rep.set("slab.morphs", float64(after.morphs-before.morphs))
	util := he.heap.SlabUtilization()
	if total := util[0] + util[1] + util[2]; total > 0 {
		r.rep.set("slab.low_util_share", float64(util[0])/float64(total))
	} else {
		r.rep.set("slab.low_util_share", 0)
	}
	r.rep.set("extent.splits_per_kop", float64(after.splits-before.splits)/kops)
	r.rep.set("extent.coalesces_per_kop", float64(after.coalesces-before.coalesces)/kops)
	r.rep.set("extent.lease_overhead_bytes", float64(he.heap.LeaseOverhead()))
	r.rep.set("blog.gc_steps_per_kop", float64(after.gcFast+after.gcSlow-before.gcFast-before.gcSlow)/kops)
	d := addStats(after.dev, before.dev, -1)
	r.rep.set("pmem.flushes_per_op", float64(d.Flushes)/float64(n))
	r.rep.set("pmem.fences_per_op", float64(d.Fences)/float64(n))
}

// reportShape reports what share of GETs hit and how many payload
// bytes an op copies, from the session's model after replaying ops.
func (r *run) reportShape(s *session, ops []op) {
	// Replay the expectations on a scratch model: the session's own has
	// already absorbed ops.
	m := make(model, len(s.model))
	for k := uint64(0); k < r.w.preload; k++ {
		m.apply(r.w.preloadOp(r.seed, k), true)
	}
	var gets, hits, copied float64
	for _, o := range ops {
		e := m.apply(o, true)
		switch o.kind {
		case traffic.OpGet:
			gets++
			if e.present {
				hits++
				copied += float64(e.size)
			}
		case traffic.OpSet:
			copied += float64(len(s.keyName(o.key)) + o.size)
		}
	}
	if gets > 0 {
		r.rep.set("store.hit_ratio", hits/gets)
	} else {
		r.rep.set("store.hit_ratio", 0)
	}
	r.rep.set("store.copy_bytes_per_op", copied/float64(len(ops)))
}

// timed returns f's wall time per item.
func timed(n int, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Nanoseconds()) / float64(n), err
}

// parallelNS runs f on workers goroutines, each with its own thread on
// h, and returns the wall time per op (n ops per goroutine).
func parallelNS(h *core.Heap, workers, n int, f func(worker int, th alloc.Thread) error) (float64, error) {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := h.NewThread()
			defer th.Close()
			errs[w] = f(w, th)
		}(w)
	}
	wg.Wait()
	ns := float64(time.Since(start).Nanoseconds()) / float64(n)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return ns, nil
}

const detailOps = 50_000

// detailCore times the allocator's entry points one kind at a time on
// the R1 heap: small malloc and free (the workload's own sizes),
// malloc/free pairs from every goroutine at once, frees of another
// thread's blocks, and extent-path malloc and free.
func (r *run) detailCore(he *heapEnv) error {
	th := he.th
	sizes := r.w.sizes[0]
	small := func(i int) uint64 {
		if sz := uint64(sizes[i%len(sizes)]); sz <= 16<<10 {
			return sz + 32
		}
		return 64 + uint64(i%25)*8
	}
	addrs := make([]pmem.PAddr, detailOps)
	var err error
	fill := func(th alloc.Thread, size func(int) uint64, n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				if addrs[i], err = th.Malloc(size(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	drain := func(th alloc.Thread, n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				if err := th.Free(addrs[i]); err != nil {
					return err
				}
			}
			if f, ok := th.(alloc.Flusher); ok {
				f.Flush()
			}
			return nil
		}
	}
	mallocNS, err := timed(detailOps, fill(th, small, detailOps))
	if err != nil {
		return err
	}
	freeNS, err := timed(detailOps, drain(th, detailOps))
	if err != nil {
		return err
	}
	// Remote: this thread allocates, a second thread frees.
	if err := fill(th, small, detailOps)(); err != nil {
		return err
	}
	other := he.heap.NewThread()
	remoteNS, err := timed(detailOps, drain(other, detailOps))
	other.Close()
	if err != nil {
		return err
	}
	const nLarge = 2_000
	large := func(i int) uint64 { return uint64(32<<10) << (i % 3) }
	largeMallocNS, err := timed(nLarge, fill(th, large, nLarge))
	if err != nil {
		return err
	}
	largeFreeNS, err := timed(nLarge, drain(th, nLarge))
	if err != nil {
		return err
	}
	pairNS, err := parallelNS(he.heap, r.conns, 2*detailOps, func(w int, th alloc.Thread) error {
		for i := 0; i < 2*detailOps; i++ {
			a, err := th.Malloc(small(i))
			if err == nil {
				err = th.Free(a)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.set("core.malloc_ns", mallocNS)
	r.rep.set("core.free_ns", freeNS)
	r.rep.set("core.remote_free_ns", remoteNS)
	r.rep.set("core.large_malloc_ns", largeMallocNS)
	r.rep.set("core.large_free_ns", largeFreeNS)
	r.rep.set("core.pair_ns_nt", pairNS)
	return nil
}

// detailPhash times Get of preloaded digests, Put of new ones and their
// Delete on the R2 index.
func (r *run) detailPhash(m *phash.Map, he *heapEnv) error {
	th := he.th
	present := make([]uint64, detailOps)
	fresh := make([]uint64, detailOps)
	for i := range present {
		present[i] = digest([]byte(traffic.KeyName(uint64(i) % r.w.preload)))
		fresh[i] = digest([]byte("fresh" + strconv.Itoa(i)))
	}
	getNS, _ := timed(detailOps, func() error {
		for _, k := range present {
			m.Get(th, k)
		}
		return nil
	})
	putNS, err := timed(detailOps, func() error {
		for i, k := range fresh {
			if err := m.Put(th, k, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	delNS, err := timed(detailOps, func() error {
		for _, k := range fresh {
			if _, err := m.Delete(th, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.set("phash.get_ns", getNS)
	r.rep.set("phash.put_ns", putNS)
	r.rep.set("phash.delete_ns", delNS)
	return nil
}

// detailStore times Get, Set and Del one kind at a time on the R3
// store, over the keys and sizes of the stream's next ops, then Set
// from every goroutine at once (each on its own shard, so they contend
// on stripe locks and the allocator, never on a key).
func (r *run) detailStore(he *heapEnv, s *session) error {
	n := min(detailOps, r.w.ladderOps)
	ops := s.ops(n)
	pass := func(kind traffic.OpKind) (float64, error) {
		return timed(n, func() error {
			for _, o := range ops {
				o.kind = kind
				if err := s.storeOp(he.store, he.th, o); err != nil {
					return err
				}
			}
			return nil
		})
	}
	setNS, err := pass(traffic.OpSet)
	if err != nil {
		return err
	}
	getNS, err := pass(traffic.OpGet)
	if err != nil {
		return err
	}
	delNS, err := pass(traffic.OpDel)
	if err != nil {
		return err
	}
	shards := make([][]op, r.conns)
	for w := range shards {
		st := newStream(r.w, r.zipf, r.seed+1, w, r.conns)
		st.writesOnly = true
		for len(shards[w]) < n {
			if o := st.next(); o.kind == traffic.OpSet {
				shards[w] = append(shards[w], o)
			}
		}
	}
	setNT, err := parallelNS(he.heap, r.conns, n, func(w int, th alloc.Thread) error {
		for _, o := range shards[w] {
			if err := he.store.Set(th, 1, s.keyName(o.key), r.pool.value(o.pool, o.size), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.set("store.set_ns", setNS)
	r.rep.set("store.get_ns", getNS)
	r.rep.set("store.del_ns", delNS)
	r.rep.set("store.set_ns_nt", setNT)
	return nil
}

// recoverInProcess opens the heap file the killed server left behind
// and times recovery layer by layer.
func (r *run) recoverInProcess(heapFile string) error {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: r.w.heapSize, Path: heapFile})
	if err != nil {
		return err
	}
	defer dev.Close()
	start := time.Now()
	h, _, err := core.Open(dev, heapOptions())
	if err != nil {
		r.violate("in-process recovery: core.Open: %v", err)
		return nil
	}
	heapOpen := time.Since(start)
	st, err := nvkv.OpenStore(h, rootSlot, nvkv.StoreConfig{})
	if err != nil {
		r.violate("in-process recovery: OpenStore: %v", err)
		return nil
	}
	storeOpen := time.Since(start) - heapOpen
	r.rep.set("recover.heap_open_ms", float64(heapOpen.Microseconds())/1e3)
	r.rep.set("recover.store_open_ms", float64(storeOpen.Microseconds())/1e3)
	r.rep.set("recover.keys", float64(st.Len()))
	return nil
}

// ladderLarson is the traced run of alloc-larson: rung R1 only (there
// is no layer above the allocator), on one worker's stream.
func (r *run) ladderLarson() error {
	dev, err := newDirectDev(r.w.heapSize)
	if err != nil {
		return err
	}
	he, err := newHeapEnv(dev, false)
	if err != nil {
		return err
	}
	w := &larsonWorker{dev: dev, th: he.th, rng: larsonRNG(r.seed, 0), inbox: make(chan block, larsonInbox)}
	w.out = w.inbox
	for i := range w.slots {
		w.slots[i] = w.malloc(larsonNext(&w.rng).size)
	}
	t := &tracer{t0: time.Now()}
	before := snapHeap(he)
	ns, err := t.rung(0, make([]op, r.w.ladderOps), func(batch []op) error {
		for range batch {
			w.step()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if w.failed > 0 {
		r.violate("%s: %d failed ops (first: %s)", rungNames[0], w.failed, w.firstErr)
	}
	r.counts.attempted += w.ops
	r.rep.set("ladder."+rungNames[0]+"_ns_per_op", ns)
	r.reportHeap(he, before, r.w.ladderOps)
	if err := r.detailCore(he); err != nil {
		return err
	}
	if untraced := r.rep.values["ops_per_s"]; untraced > 0 {
		// The untraced figure is all goroutines together.
		r.rep.set("trace.overhead_ratio", 1-(1e9/ns)*float64(r.conns)/untraced)
	}
	// No layer above the allocator exists on this workload.
	for _, d := range perLayer {
		if _, ok := r.rep.values[d.name]; !ok {
			r.rep.set(d.name, 0)
		}
	}
	r.rep.note("alloc-larson runs no service: resp.*, server.*, store.*, phash.* and the service rows of recover.* are reported as 0")
	if r.traceOut != "" {
		return t.write(r.traceOut)
	}
	return nil
}
