package crashmc

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

// The kv-session family checks the service above the allocator with the
// allocator's own cuts: a traffic script served by nvkv over a pipe, one
// command at a time, the store's index published by Create in root slot 0.
// Its oracle is acknowledged durability (an acked SET reads back its bytes,
// an acked DEL or expiry stays gone, the one command in flight reads as its
// pre- or its post-state) and allocated == reachable: the heap holds the
// index's blocks and the records they reference, and nothing else.

const (
	// kvRootSlot and kvBuckets place a small store: 256 buckets keep the
	// directory's flush at Create short.
	kvRootSlot = 0
	kvBuckets  = 256
	// kvOps and kvKeys size the script: 780 ops over 96 keys, whose
	// zipfian head sees overwrites, deletes and expiries many times over.
	kvOps  = 780
	kvKeys = 96
)

// kvTarget is NVAlloc-LOG as the checker runs it (VariantTarget) with an
// empty store created on it before CreatedAt.
func kvTarget() Target {
	tg := VariantTarget(core.LOG)
	create := tg.Create
	tg.Create = func(dev *pmem.Device) (alloc.Heap, error) {
		h, err := create(dev)
		if err != nil {
			return nil, err
		}
		th := h.NewThread()
		defer th.Close()
		if _, err := nvkv.CreateStore(h, th, kvRootSlot, nvkv.StoreConfig{Buckets: kvBuckets}); err != nil {
			return nil, err
		}
		return h, nil
	}
	return tg
}

// kvFamily is the scripted session of seed on kvTarget.
func kvFamily(seed uint64) Family {
	script := traffic.GenScript(seed, kvOps, kvKeys)
	return Family{Name: "kv-session", Target: kvTarget(),
		Trace:  Trace{Name: "kv-session", Serve: kvServe(script)},
		Oracle: kvOracle(script)}
}

// kvServe replays script against a server on the recorded heap. The
// server's clock is the script's, so expiry is a function of the op index,
// and traffic.Replay checks every reply against its model as it goes.
func kvServe(script traffic.Script) func(h alloc.Heap, acked func(i int)) error {
	return func(h alloc.Heap, acked func(i int)) error {
		st, err := nvkv.OpenStore(h, kvRootSlot, nvkv.StoreConfig{})
		if err != nil {
			return err
		}
		var clock atomic.Int64
		srv := nvkv.NewServer(st, nvkv.ServerConfig{Now: clock.Load})
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.ServeConn(server)
			close(done)
		}()
		err = traffic.Replay(client, script, clock.Store, acked)
		client.Close()
		<-done
		return err
	}
}

// kvOracle holds a recovered store to the model of the commands acked at
// the boundary. A boundary with no command in flight, and every 64th, is
// checked over the whole key universe, any other over 8 sampled keys; the
// command in flight may have moved its own key, to its post-state only.
func kvOracle(script traffic.Script) func(rec *Recording) func(h alloc.Heap, k int, torn bool) []string {
	return func(rec *Recording) func(h alloc.Heap, k int, torn bool) []string {
		// models[n] is the store after the first n commands.
		models := make([]traffic.Model, len(rec.Ops)+1)
		models[0] = traffic.Model{}
		for i := range rec.Ops {
			models[i+1] = models[i].Clone()
			models[i+1].Apply(script.Ops[i], traffic.NowAt(i))
		}
		probeNow := traffic.ProbeNow(len(script.Ops))
		return func(h alloc.Heap, k int, torn bool) []string {
			st, err := nvkv.OpenStore(h, kvRootSlot, nvkv.StoreConfig{})
			if err != nil {
				if k < rec.CreatedAt {
					return nil // the store may not exist yet
				}
				return []string{"store not recovered: " + err.Error()}
			}
			th := h.NewThread()
			defer th.Close()
			// n commands are acked; command n is in flight if its window
			// has begun, as the shared oracle decides for root slots.
			n := sort.Search(len(rec.Ops), func(i int) bool { return rec.Ops[i].FlushEnd > k })
			var inflight *traffic.Op
			var relax map[string]bool
			if n < len(rec.Ops) && (rec.Ops[n].FlushStart < k || torn && rec.Ops[n].FlushStart == k) {
				inflight = &script.Ops[n]
				relax = map[string]bool{inflight.Key: true}
			}
			keys := script.Keys
			if inflight != nil && k%64 != 0 {
				keys = make([]string, 8)
				for j := range keys {
					keys[j] = script.Keys[(k*13+j*37)%len(script.Keys)]
				}
			}
			if err := traffic.CheckRecovered(st, th, models[n], keys, probeNow, relax); err != nil {
				return []string{err.Error()}
			}
			if inflight != nil {
				one := []string{inflight.Key}
				errPre := traffic.CheckRecovered(st, th, models[n], one, probeNow, nil)
				if errPost := traffic.CheckRecovered(st, th, models[n+1], one, probeNow, nil); errPre != nil && errPost != nil {
					return []string{fmt.Sprintf("in-flight %s %s in neither admissible state: pre: %v / post: %v",
						inflight.Kind, inflight.Key, errPre, errPost)}
				}
			}
			return allocatedIsReachable(h, st)
		}
	}
}

// allocatedIsReachable holds the heap's objects to the blocks the store
// references: a record a crash left allocated but unbound, or bound but
// free, fails at the boundary that did it.
func allocatedIsReachable(h alloc.Heap, st *nvkv.Store) []string {
	reachable := map[pmem.PAddr]bool{}
	st.References(func(a pmem.PAddr) { reachable[a] = true })
	var probs []string
	h.(*core.Heap).Objects(func(o core.Object) bool {
		if !reachable[o.Addr] {
			probs = append(probs, fmt.Sprintf("leak: %d-byte object at %#x is allocated and unreachable from the index", o.Size, o.Addr))
		}
		delete(reachable, o.Addr)
		return true
	})
	dangling := make([]pmem.PAddr, 0, len(reachable))
	for a := range reachable {
		dangling = append(dangling, a)
	}
	sort.Slice(dangling, func(i, j int) bool { return dangling[i] < dangling[j] })
	for _, a := range dangling {
		probs = append(probs, fmt.Sprintf("dangling: the index references %#x, which is not an allocated object", a))
	}
	return probs
}
