package phash

import (
	"fmt"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// TestConcurrentDeleteOverwriteDirect hammers the index's delete and
// overwrite paths from real goroutines on the direct (wall-clock)
// device, where stripe locks are plain mutexes and there is no virtual-
// time serialization to hide ordering bugs. Run under -race.
//
// Each worker owns a private key shard (insert → overwrite → delete →
// re-insert cycles, verified against a local model) and also churns a
// small shared hot band where the only invariants are: no errors, every
// read observes some worker's complete tagged value, and the final
// directory agrees with a cold reopen.
func TestConcurrentDeleteOverwriteDirect(t *testing.T) {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	setup := h.NewThread()
	m, err := Create(h, setup, 0, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const (
		workers  = 8
		perShard = 200
		hotKeys  = 16
		rounds   = 400
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	models := make([]map[uint64]uint64, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			defer th.Close()
			model := make(map[uint64]uint64)
			models[w] = model
			base := uint64(1000 + w*perShard)
			fail := func(format string, args ...any) {
				errs[w] = fmt.Errorf("worker %d: %s", w, fmt.Sprintf(format, args...))
			}
			for r := 0; r < rounds; r++ {
				// Private shard: insert/overwrite/delete cycle.
				k := base + uint64(r%perShard)
				switch r % 4 {
				case 0, 1: // insert or overwrite
					v := uint64(r+1)<<16 | uint64(w)
					if err := m.Put(th, k, v); err != nil {
						fail("put %d: %v", k, err)
						return
					}
					model[k] = v
				case 2: // read back
					v, ok := m.Get(th, k)
					wantV, want := model[k]
					if ok != want || (ok && v != wantV) {
						fail("get %d = %d,%v want %d,%v", k, v, ok, wantV, want)
						return
					}
				default: // delete
					ok, err := m.Delete(th, k)
					if err != nil {
						fail("delete %d: %v", k, err)
						return
					}
					if _, want := model[k]; ok != want {
						fail("delete %d = %v, model %v", k, ok, want)
						return
					}
					delete(model, k)
				}
				// Shared hot band: concurrent overwrite/delete/get on the
				// same keys from every worker.
				hk := uint64(r % hotKeys)
				switch (r + w) % 3 {
				case 0:
					if err := m.Put(th, hk, uint64(w+1)*1e9+uint64(r)); err != nil {
						fail("hot put %d: %v", hk, err)
						return
					}
				case 1:
					if v, ok := m.Get(th, hk); ok && v%1e9 > rounds {
						fail("hot get %d: torn value %d", hk, v)
						return
					}
				default:
					if _, err := m.Delete(th, hk); err != nil {
						fail("hot delete %d: %v", hk, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Verify the final directory against the merged per-worker models
	// (private shards are disjoint).
	th := h.NewThread()
	live := 0
	for w := 0; w < workers; w++ {
		for k, want := range models[w] {
			v, ok := m.Get(th, k)
			if !ok || v != want {
				t.Fatalf("final: key %d = %d,%v want %d", k, v, ok, want)
			}
			live++
		}
	}
	hot := make(map[uint64]uint64)
	for hk := uint64(0); hk < hotKeys; hk++ {
		if v, ok := m.Get(th, hk); ok {
			hot[hk] = v
			live++
		}
	}
	if got := m.Len(); got != live {
		t.Fatalf("Len %d, want %d", got, live)
	}
	if f, ok := th.(alloc.Flusher); ok {
		f.Flush()
	}
	th.Close()

	// Cold reopen on the same device must agree exactly.
	h2, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(h2, 0)
	if err != nil {
		t.Fatal(err)
	}
	th2 := h2.NewThread()
	defer th2.Close()
	if got := m2.Len(); got != live {
		t.Fatalf("reopened Len %d, want %d", got, live)
	}
	for w := 0; w < workers; w++ {
		for k, want := range models[w] {
			if v, ok := m2.Get(th2, k); !ok || v != want {
				t.Fatalf("reopened: key %d = %d,%v want %d", k, v, ok, want)
			}
		}
	}
	for hk, want := range hot {
		if v, ok := m2.Get(th2, hk); !ok || v != want {
			t.Fatalf("reopened hot: key %d = %d,%v want %d", hk, v, ok, want)
		}
	}
}

// BenchmarkChainedGet times a lookup in an index loaded the way the
// kv-churn workload loads it: 600k keys over 32 Ki buckets, so a chain is
// two to three buckets long and a lookup scans all of it half the time
// (misses). It runs on the direct device, where a flush costs nothing and
// the scan is the whole cost.
func BenchmarkChainedGet(b *testing.B) {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	m, err := Create(h, th, 0, 1<<15, 0)
	if err != nil {
		b.Fatal(err)
	}
	const n = 600_000
	for k := uint64(0); k < n; k++ {
		if err := m.Put(th, hash64(k), k+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(th, hash64(uint64(i)%(2*n))); ok {
			hits++
		}
	}
	if b.N > 100 && hits == 0 {
		b.Fatal("no lookup hit")
	}
}
