package experiment

import (
	"fmt"
	"math/rand"

	"nvalloc/internal/alloc"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
	"nvalloc/internal/workload"
)

func init() {
	register("hashindex", hashIndexExp)
}

// hashIndexExp is an extension beyond the paper: the persistent hash
// index (internal/phash, in the spirit of the level-hashing/Dash work the
// paper cites) as an allocator workload. The index stores 8-byte values
// inline, so the workload keeps a 64-byte payload per key out of line, the
// way a session store would: every put allocates one (and frees the one
// it supersedes, and possibly chains an overflow bucket), every delete
// frees one.
func hashIndexExp(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	sets := []struct {
		title string
		names []string
	}{
		{"strongly consistent", StrongAllocators},
		{"weakly consistent", WeakAllocators},
	}
	// The two sets have different widths, so flatten them into one job
	// list (same pattern as fig14) instead of a rectangular grid.
	type slot struct {
		set, row, col int
	}
	var jobs []func()
	results := make([][][]float64, len(sets))
	for si, set := range sets {
		results[si] = make([][]float64, len(cfg.Threads))
		for ti := range cfg.Threads {
			results[si][ti] = make([]float64, len(set.names))
			for ni := range set.names {
				s := slot{si, ti, ni}
				jobs = append(jobs, func() {
					results[s.set][s.row][s.col] = hashIndexRun(cfg, sets[s.set].names[s.col], cfg.Threads[s.row])
				})
			}
		}
	}
	runJobs(cfg, jobs)
	var tables []*Table
	for si, set := range sets {
		t := &Table{
			ID:      "hashindex",
			Title:   fmt.Sprintf("Persistent hash index 50%% put / 25%% get / 25%% delete, %s allocators (Mops/s) [extension]", set.title),
			Columns: append([]string{"threads"}, set.names...),
		}
		for ti, th := range cfg.Threads {
			row := []string{fmt.Sprint(th)}
			for ni := range set.names {
				row = append(row, f2(results[si][ti][ni]))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// hashPayloadBytes is the out-of-line value hashIndexRun hangs off each key.
const hashPayloadBytes = 64

func hashIndexRun(cfg Config, name string, threads int) float64 {
	h, err := OpenHeap(name, cfg)
	if err != nil {
		panic(err)
	}
	th0 := h.NewThread()
	m, err := phash.Create(h, th0, 0, 4096, 0)
	if err != nil {
		panic(err)
	}
	th0.Close()
	dev := h.Device()
	keys := uint64(cfg.ops(40000))
	opsPer := cfg.ops(20000)
	// Workers race on keys and the index serializes single operations only,
	// so the look-up of the payload a put or delete supersedes and the
	// publish that supersedes it run under a workload-level stripe. The
	// allocator calls stay outside it: a payload is built before it is
	// published and freed after it is unreachable.
	var stripes [64]pmem.Resource
	r := workload.Run("hashindex", h, threads, func(w int, th alloc.Thread, rng *rand.Rand) uint64 {
		c := th.Ctx()
		ops := uint64(0)
		for i := 0; i < opsPer; i++ {
			k := rng.Uint64() % keys
			kind := rng.Intn(4)
			if kind == 2 {
				m.Get(th, k)
				ops++
				continue
			}
			put := kind < 2
			var p pmem.PAddr
			if put {
				var err error
				if p, err = th.Malloc(hashPayloadBytes); err != nil {
					continue
				}
				dev.WriteU64(p, k)
				c.Flush(pmem.CatOther, p, hashPayloadBytes)
				c.Fence()
			}
			lk := &stripes[k%uint64(len(stripes))]
			lk.Acquire(c)
			old, had := m.Get(th, k)
			var err error
			if put {
				err = m.Put(th, k, uint64(p))
			} else if had {
				_, err = m.Delete(th, k)
			}
			lk.Release(c)
			if err != nil {
				if put {
					_ = th.Free(p) // never published
				}
				continue
			}
			if had && th.Free(pmem.PAddr(old)) != nil {
				continue
			}
			ops++
		}
		return ops
	})
	return r.MopsPerSec()
}
