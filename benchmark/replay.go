package main

import (
	"bytes"
	"fmt"
	"sync"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

// rootSlot is where `nvkv serve` keeps the store; in-process replays
// use the same one so a heap file is interchangeable between the two.
const rootSlot = 0

// heapEnv is a heap with a store on it and one session to drive them.
type heapEnv struct {
	dev   pmem.Dev
	heap  *core.Heap
	th    alloc.Thread
	store *nvkv.Store
}

func heapOptions() core.Options { return core.DefaultOptions(core.LOG) }

// newHeapEnv formats dev the way `nvkv serve` does.
func newHeapEnv(dev pmem.Dev, withStore bool) (*heapEnv, error) {
	h, err := core.Create(dev, heapOptions())
	if err != nil {
		return nil, err
	}
	he := &heapEnv{dev: dev, heap: h, th: h.NewThread()}
	if withStore {
		if he.store, err = nvkv.CreateStore(h, he.th, rootSlot, nvkv.StoreConfig{}); err != nil {
			return nil, err
		}
	}
	return he, nil
}

func newDirectDev(size uint64) (pmem.Dev, error) {
	return pmem.NewDirect(pmem.DirectConfig{Size: size})
}

// session replays one stream against one layer, single-threaded, with a
// model of every key (a lone session owns them all).
type session struct {
	w      *workload
	pool   *valuePool
	model  model
	stream *stream
	// clock is the logical service time handed to the store: one
	// millisecond per op, so nothing reads the wall clock.
	clock int64
	// names caches wire key names, so that formatting them is not
	// timed as part of any layer.
	names [][]byte
}

func (s *session) keyName(key uint64) []byte {
	if s.names == nil {
		s.names = make([][]byte, s.w.universe)
	}
	if s.names[key] == nil {
		s.names[key] = []byte(traffic.KeyName(key))
	}
	return s.names[key]
}

func (r *run) newSession() *session {
	return &session{w: r.w, pool: r.pool, model: make(model, r.w.universe),
		stream: newStream(r.w, r.zipf, r.seed, 0, r.conns)}
}

// ops draws the session's next n ops, flipping the size set at the
// halfway mark as the timed phases do at half time.
func (s *session) ops(n int) []op {
	out := make([]op, n)
	s.stream.half = 0
	for i := range out {
		if i == n/2 {
			s.stream.half = 1
		}
		out[i] = s.stream.next()
	}
	return out
}

// storeOp executes o against the store and checks the result against
// the model.
func (s *session) storeOp(st *nvkv.Store, th alloc.Thread, o op) error {
	s.clock += 1e6
	e := s.model.apply(o, true)
	key := s.keyName(o.key)
	switch o.kind {
	case traffic.OpGet:
		val, ok, err := st.Get(th, s.clock, key)
		if err != nil {
			return err
		}
		if ok != e.present || (ok && !bytes.Equal(val, s.pool.value(e.pool, e.size))) {
			return fmt.Errorf("GET %s: present=%v (%d bytes), want present=%v (%d bytes)", key, ok, len(val), e.present, e.size)
		}
	case traffic.OpSet:
		return st.Set(th, s.clock, key, s.pool.value(o.pool, o.size), 0)
	case traffic.OpDel:
		ok, err := st.Del(th, key)
		if err != nil {
			return err
		}
		if ok != e.present {
			return fmt.Errorf("DEL %s: removed=%v, want %v", key, ok, e.present)
		}
	case traffic.OpExpire:
		ok, err := st.Expire(th, s.clock, key, o.ttlMs*1e6)
		if err != nil {
			return err
		}
		if ok != e.present {
			return fmt.Errorf("EXPIRE %s: found=%v, want %v", key, ok, e.present)
		}
	}
	return nil
}

// preloadStore creates the workload's preloaded keys.
func (s *session) preloadStore(seed uint64, st *nvkv.Store, th alloc.Thread) error {
	for k := uint64(0); k < s.w.preload; k++ {
		if err := s.storeOp(st, th, s.w.preloadOp(seed, k)); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// simResult is what the virtual-time twin measures. It is comparable
// with ==: the determinism guard runs the twin twice and demands
// identical values.
type simResult struct {
	ops     int
	clockNS int64
	stats   pmem.Stats
	// recoverNS is the virtual time core.Open took on the twin's heap
	// after it was dropped without Close.
	recoverNS int64
}

// recover abandons whatever heap is open on dev, as a crash would, and
// recovers it with core.Open, recording the virtual time that took.
func (s *simResult) recover(dev pmem.Dev) (*core.Heap, error) {
	h, ns, err := core.Open(dev, heapOptions())
	if err != nil {
		return nil, fmt.Errorf("sim twin: core.Open after drop: %w", err)
	}
	s.recoverNS = ns
	return h, nil
}

// addStats returns a + sign*b over the counters a run accumulates.
func addStats(a, b pmem.Stats, sign int64) pmem.Stats {
	u := uint64(sign)
	a.Flushes += u * b.Flushes
	a.Reflushes += u * b.Reflushes
	a.SeqFlushes += u * b.SeqFlushes
	a.RandFlushes += u * b.RandFlushes
	a.Fences += u * b.Fences
	for i := range a.CatNS {
		a.CatNS[i] += sign * b.CatNS[i]
		a.CatFlush[i] += u * b.CatFlush[i]
	}
	a.LockWaitNS += sign * b.LockWaitNS
	a.BankWaitNS += sign * b.BankWaitNS
	return a
}

// simStore replays the first simOps ops of connection 0's stream
// against an nvkv.Store on the simulated ADR device.
func (r *run) simStore() (simResult, error) {
	he, err := newHeapEnv(pmem.New(pmem.Config{Size: r.w.heapSize}), true)
	if err != nil {
		return simResult{}, err
	}
	s := r.newSession()
	if err := s.preloadStore(r.seed, he.store, he.th); err != nil {
		return simResult{}, err
	}
	ops := s.ops(r.w.simOps)
	c := he.th.Ctx()
	before, t0 := c.Local(), c.Now
	for i, o := range ops {
		if err := s.storeOp(he.store, he.th, o); err != nil {
			return simResult{}, fmt.Errorf("sim twin op %d: %w", i, err)
		}
	}
	res := simResult{ops: len(ops), clockNS: c.Now - t0, stats: addStats(c.Local(), before, -1)}
	// Drop the session and the heap without Close, recover in virtual
	// time and count the keys the recovered store holds.
	h, err := res.recover(he.dev)
	if err != nil {
		return simResult{}, err
	}
	st, err := nvkv.OpenStore(h, rootSlot, nvkv.StoreConfig{})
	if err != nil {
		return simResult{}, fmt.Errorf("sim twin: OpenStore after drop: %w", err)
	}
	if want, _ := s.model.liveBytes(); uint64(st.Len()) != want {
		return simResult{}, fmt.Errorf("sim twin: %d keys after recovery, the session acknowledged %d", st.Len(), want)
	}
	return res, nil
}

// simTwin runs twin twice, concurrently (each replica is a single
// session on its own device), and fails unless both agree on every
// counter: a difference means map order or the wall clock leaked into
// virtual time.
func (r *run) simTwin(twin func() (simResult, error)) error {
	var res [2]simResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = twin()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.violate("sim twin: %v", err)
			return nil
		}
	}
	if res[0] != res[1] {
		r.violate("sim twin is not deterministic: %+v vs %+v", res[0], res[1])
	}
	r.reportSim(res[0])
	return nil
}

func (r *run) reportSim(s simResult) {
	n := float64(s.ops)
	st := s.stats
	fenceNS := float64(st.Fences) * pmem.FenceNS
	r.rep.set("sim_ns_per_op", float64(s.clockNS)/n)
	r.rep.set("sim_flushes_per_op", float64(st.Flushes)/n)
	r.rep.set("sim_recover_us", float64(s.recoverNS)/1e3)
	r.rep.set("pmem.sim_reflush_ratio", st.ReflushRatio())
	if st.Flushes > 0 {
		r.rep.set("pmem.sim_seq_flush_ratio", float64(st.SeqFlushes)/float64(st.Flushes))
	} else {
		r.rep.set("pmem.sim_seq_flush_ratio", 0)
	}
	r.rep.set("pmem.sim_meta_ns_per_op", float64(st.CatNS[pmem.CatMeta])/n)
	r.rep.set("pmem.sim_search_ns_per_op", float64(st.CatNS[pmem.CatSearch])/n)
	r.rep.set("pmem.sim_fence_ns_per_op", fenceNS/n)
	r.rep.set("pmem.sim_lock_wait_ns_per_op", float64(st.LockWaitNS)/n)
	r.rep.set("pmem.sim_bank_wait_ns_per_op", float64(st.BankWaitNS)/n)
	// Fences are charged to the Other category; report them apart.
	r.rep.set("pmem.sim_other_ns_per_op", (float64(st.CatNS[pmem.CatOther])-fenceNS)/n)
	r.rep.set("walog.sim_ns_per_op", float64(st.CatNS[pmem.CatWAL])/n)
	r.rep.set("walog.flushes_per_op", float64(st.CatFlush[pmem.CatWAL])/n)
}
