package experiment

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/workload"
)

func init() {
	register("contention", contention)
}

// contention reports the per-resource lock-load breakdown — virtual time
// spent inside each lock's critical sections, time spent waiting for it,
// and acquisition counts — for NVAlloc-LOG with and without the arena
// extent caches and shard pools, at the sweep's highest thread count.
// Threadtest stresses the slab-refill path (the batched-carve win);
// Larson-large stresses direct large allocations (the shard-pool win).
func contention(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	threads := cfg.Threads[len(cfg.Threads)-1]
	configs := []string{"NVAlloc-LOG", "NVAlloc-LOG nocache"}
	benches := []struct {
		name string
		run  func(h alloc.Heap) workload.Result
	}{
		{"Threadtest", func(h alloc.Heap) workload.Result {
			return workload.Threadtest(h, threads, cfg.ops(10), 1000, 64)
		}},
		{"Larson-large", func(h alloc.Heap) workload.Result {
			return workload.Larson(h, threads, 24, cfg.ops(1500), 32<<10, 512<<10)
		}},
	}

	type cell struct {
		res    []core.ResourceLoad
		slabs  uint64
		hits   uint64
		carved uint64
		mops   float64
	}
	cells := grid(cfg, len(benches), len(configs), func(bi, ci int) cell {
		h, err := OpenHeap(configs[ci], cfg)
		if err != nil {
			panic(err)
		}
		r := benches[bi].run(h)
		ch := h.(*core.Heap)
		hits, _, _, carved := ch.CacheStats()
		return cell{
			res:    ch.Contention(),
			slabs:  ch.SlabCreates(),
			hits:   hits,
			carved: carved,
			mops:   r.MopsPerSec(),
		}
	})

	breakdown := &Table{
		ID:      "contention",
		Title:   fmt.Sprintf("Per-resource lock load, %d threads (virtual time)", threads),
		Columns: []string{"benchmark", "config", "resource", "load_us", "wait_us", "acquires"},
		CSV:     map[string][]string{},
	}
	summary := &Table{
		ID:    "contention",
		Title: fmt.Sprintf("Extent-layer contention summary, %d threads", threads),
		Columns: []string{"benchmark", "config", "large_wait_us", "large_acquires",
			"book_wait_us", "slabs", "acq_per_slab", "cache_hits", "Mops/s"},
	}
	csv := []string{"bench,config,large_wait_ns,large_acquires,book_wait_ns,slabs,acq_per_slab,mops"}
	for bi, b := range benches {
		for ci, name := range configs {
			c := cells[bi][ci]
			var large, book core.ResourceLoad
			var shardWait, arenaWait int64
			var shardAcq, arenaAcq uint64
			for _, r := range c.res {
				switch {
				case r.Name == "large":
					large = r
				case r.Name == "book":
					book = r
				case len(r.Name) > 5 && r.Name[:5] == "shard":
					shardWait += r.WaitNS
					shardAcq += r.Acquires
				case len(r.Name) > 5 && r.Name[:5] == "arena":
					arenaWait += r.WaitNS
					arenaAcq += r.Acquires
				}
				breakdown.Rows = append(breakdown.Rows, []string{
					b.name, name, r.Name, usec(r.LoadNS), usec(r.WaitNS), fmt.Sprint(r.Acquires),
				})
			}
			breakdown.Rows = append(breakdown.Rows, []string{
				b.name, name, "shards(sum)", "-", usec(shardWait), fmt.Sprint(shardAcq),
			})
			breakdown.Rows = append(breakdown.Rows, []string{
				b.name, name, "arenas(sum)", "-", usec(arenaWait), fmt.Sprint(arenaAcq),
			})
			acqPerSlab := 0.0
			if c.slabs > 0 {
				acqPerSlab = float64(large.Acquires) / float64(c.slabs)
			}
			summary.Rows = append(summary.Rows, []string{
				b.name, name, usec(large.WaitNS), fmt.Sprint(large.Acquires),
				usec(book.WaitNS), fmt.Sprint(c.slabs), f2(acqPerSlab),
				fmt.Sprint(c.hits), f2(c.mops),
			})
			csv = append(csv, fmt.Sprintf("%s,%s,%d,%d,%d,%d,%.3f,%.3f",
				b.name, name, large.WaitNS, large.Acquires, book.WaitNS,
				c.slabs, acqPerSlab, c.mops))
		}
	}
	breakdown.CSV["contention_summary"] = csv
	return []*Table{summary, breakdown}
}
