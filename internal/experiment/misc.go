package experiment

import (
	"fmt"
	"math/rand"

	"nvalloc/internal/alloc"
	"nvalloc/internal/baseline"
	"nvalloc/internal/core"
	"nvalloc/internal/fptree"
	"nvalloc/internal/pmem"
	"nvalloc/internal/workload"
)

func init() {
	register("fig14", fig14)
	register("fig16a", fig16a)
	register("fig18", fig18)
	register("fig19", fig19)
	register("table2", table2)
}

// fig14 reproduces Figure 14: FPTree throughput with a 50% insert / 50%
// delete workload on every allocator.
func fig14(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	warm := cfg.ops(20000)
	opsPer := cfg.ops(20000)
	sets := []struct {
		title string
		names []string
	}{
		{"strongly consistent", StrongAllocators},
		{"weakly consistent", WeakAllocators},
	}
	// Flatten both allocator sets into one job list (the sets have
	// different widths, so a rectangular grid does not fit).
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
					results[s.set][s.row][s.col] = fptreeRun(cfg, sets[s.set].names[s.col], cfg.Threads[s.row], warm, opsPer)
				})
			}
		}
	}
	runJobs(cfg, jobs)
	var tables []*Table
	for si, set := range sets {
		t := &Table{
			ID:      "fig14",
			Title:   fmt.Sprintf("FPTree 50%% insert / 50%% delete, %s allocators (Mops/s)", set.title),
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

func fptreeRun(cfg Config, name string, threads, warm, opsPerThread int) float64 {
	h, err := OpenHeap(name, cfg)
	if err != nil {
		panic(err)
	}
	th0 := h.NewThread()
	tr, err := fptree.Create(h, th0, 0)
	if err != nil {
		panic(err)
	}
	th0.Close()
	// Warm up with the same thread pool as the measured run (so slab
	// ownership spreads across arenas, as it would on the testbed).
	workload.Run("FPTree-warm", h, threads, func(w int, th alloc.Thread, rng *rand.Rand) uint64 {
		for i := 0; i < warm/threads+1; i++ {
			if err := tr.Insert(th, rng.Uint64()%uint64(4*warm), 1); err != nil {
				panic(err)
			}
		}
		return 0
	})
	r := workload.Run("FPTree", h, threads, func(w int, th alloc.Thread, rng *rand.Rand) uint64 {
		ops := uint64(0)
		for i := 0; i < opsPerThread; i++ {
			k := rng.Uint64() % uint64(4*warm)
			if i%2 == 0 {
				if tr.Insert(th, k, k) == nil {
					ops++
				}
			} else {
				if _, err := tr.Delete(th, k); err == nil {
					ops++
				}
			}
		}
		return ops
	})
	return r.MopsPerSec()
}

// fig16a reproduces Figure 16(a): bit-stripe sweep on Threadtest across
// thread counts (the XPBuffer pressure makes large stripe counts hurt).
// The first table is NVAlloc-LOG as this repository builds it, where the
// stripes are the WAL's and the bookkeeping log's alone; the second lays
// bitmaps and tcache out over the same count, as the paper's does.
func fig16a(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	return []*Table{
		stripeSweep(cfg, "fig16a", pmem.ModeADR, false,
			"Bit-stripe sweep on Threadtest (virtual ms; ADR)"),
		stripeSweep(cfg, "fig16a", pmem.ModeADR, true,
			"Bit-stripe sweep on Threadtest, paper layout: bitmaps and tcache striped with the WAL (virtual ms; ADR)"),
	}
}

// fig19 reproduces Figure 19: the same sweep on eADR, where stripes make
// no difference because flushes are free.
func fig19(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.Threads = []int{4}
	return []*Table{stripeSweep(cfg, "fig19", pmem.ModeEADR, false,
		"Bit-stripe sweep on Threadtest (virtual ms; emulated eADR)")}
}

func stripeSweep(cfg Config, id string, mode pmem.Mode, paper bool, title string) *Table {
	stripes := []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32}
	t := &Table{
		ID:    id,
		Title: title,
		Columns: append([]string{"threads"}, func() []string {
			var c []string
			for _, s := range stripes {
				c = append(c, fmt.Sprint(s))
			}
			return c
		}()...),
	}
	ns := grid(cfg, len(cfg.Threads), len(stripes), func(ti, si int) int64 {
		s := stripes[si]
		dev := pmem.New(pmem.Config{Size: cfg.DeviceBytes, Mode: mode})
		opts := core.DefaultOptions(core.LOG)
		opts.Stripes = s
		// Figure 19 measures the raw effect of stripes, so eADR does
		// NOT auto-disable interleaving here.
		var h *core.Heap
		var err error
		if paper {
			h, err = core.CreateLayout(dev, opts, core.Layout{Bitmap: s, Tcache: s, WAL: s})
		} else {
			h, err = core.Create(dev, opts)
		}
		if err != nil {
			panic(err)
		}
		return workload.Threadtest(h, cfg.Threads[ti], cfg.ops(10), 1000, 64).MakespanNS
	})
	for ti, th := range cfg.Threads {
		row := []string{fmt.Sprint(th)}
		for si := range stripes {
			row = append(row, msec(ns[ti][si]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig18 reproduces Figure 18: single-thread recovery time after a crash
// with a linked list of nodes (the paper's 10M nodes, scaled).
func fig18(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	nodes := cfg.ops(100000)
	t := &Table{
		ID:      "fig18",
		Title:   fmt.Sprintf("Recovery time after crash, %d-node linked list (virtual ms)", nodes),
		Columns: []string{"allocator", "recovery ms"},
	}
	names := []string{"nvm_malloc", "PMDK", "NVAlloc-LOG", "Ralloc", "Makalu", "NVAlloc-GC"}
	ns := grid(cfg, 1, len(names), func(_, ni int) int64 {
		return recoveryRun(cfg, names[ni], nodes)
	})
	for ni, name := range names {
		t.Rows = append(t.Rows, []string{name, msec(ns[0][ni])})
	}
	return []*Table{t}
}

// recoveryRun builds the linked list, crashes the device and reopens the
// heap, returning the recovery's virtual nanoseconds.
func recoveryRun(cfg Config, name string, nodes int) int64 {
	dev := pmem.New(pmem.Config{Size: cfg.DeviceBytes, Strict: true})
	h, err := OpenHeapOn(dev, name)
	if err != nil {
		panic(err)
	}
	th := h.NewThread()
	rng := rand.New(rand.NewSource(4))
	var prev pmem.PAddr
	for i := 0; i < nodes; i++ {
		size := uint64(64 + rng.Intn(65)) // 64..128 B, as in the paper
		p, err := th.Malloc(size)
		if err != nil {
			panic(err)
		}
		dev.WriteU64(p, uint64(prev))
		th.Ctx().Flush(pmem.CatOther, p, 8)
		prev = p
	}
	th.Ctx().PersistU64(pmem.CatOther, h.RootSlot(0), uint64(prev))
	th.Ctx().Merge()
	dev.Crash()

	var ns int64
	if preset, ok := baseline.Preset(name); ok {
		_, ns, err = baseline.Open(dev, preset)
	} else {
		_, ns, err = core.Open(dev, core.Options{})
	}
	must(err)
	return ns
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// table2 prints the technique matrix of Table 2.
func table2(Config) []*Table {
	t := &Table{
		ID:      "table2",
		Title:   "Techniques used in the NVAlloc variants as built here (IM = interleaved mapping; the paper's NVAlloc-LOG has IM(WAL,bitmaps,tcache): EXPERIMENTS.md D2)",
		Columns: []string{"allocator", "small allocation", "large allocation"},
		Rows: [][]string{
			{"NVAlloc-LOG", "IM(WAL); slab morphing", "IM(WAL,bookkeeping log); log-structured bookkeeping"},
			{"NVAlloc-GC", "slab morphing", "IM(WAL,bookkeeping log); log-structured bookkeeping"},
			{"NVAlloc-IC", "IM(bitmaps,tcache); slab morphing", "IM(WAL,bookkeeping log); log-structured bookkeeping"},
		},
	}
	return []*Table{t}
}
