package experiment

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
	"nvalloc/internal/workload"
)

func init() {
	register("fig2", fig2)
	register("fig12", func(cfg Config) []*Table { return largePerf(cfg, "fig12") })
	register("fig17", fig17)
	register("fig21", fig21)
}

func largeBenches(cfg Config) []struct {
	name string
	run  func(h alloc.Heap, threads int) workload.Result
} {
	return []struct {
		name string
		run  func(h alloc.Heap, threads int) workload.Result
	}{
		{"Larson-large", func(h alloc.Heap, t int) workload.Result {
			return workload.Larson(h, t, 24, cfg.ops(1500), 32<<10, 512<<10)
		}},
		{"DBMStest", func(h alloc.Heap, t int) workload.Result {
			return workload.DBMStest(h, t, cfg.ops(5), cfg.ops(120))
		}},
	}
}

// fig2 reproduces Figure 2: the addresses of the first 1000 metadata
// flushes during DBMStest, showing the small random writes of in-place
// bookkeeping against the sequential pattern of the bookkeeping log.
func fig2(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig2",
		Title:   "First 1000 metadata-flush addresses on DBMStest (see CSV series)",
		Columns: []string{"allocator", "flushes traced", "distinct 1MiB regions", "random%"},
		CSV:     map[string][]string{},
	}
	names := []string{"nvm_malloc", "PAllocator", "PMDK", "Makalu", "NVAlloc-LOG"}
	type traceResult struct {
		csv     []string
		flushes int
		regions int
		randPct float64
	}
	results := grid(cfg, 1, len(names), func(_, ni int) traceResult {
		dev := pmem.New(pmem.Config{Size: cfg.DeviceBytes, TraceFlushes: 4000})
		h, err := OpenHeapOn(dev, names[ni])
		if err != nil {
			panic(err)
		}
		r := workload.DBMStest(h, 1, cfg.ops(4), cfg.ops(120))
		rows := []string{"seq,addr"}
		regions := map[uint64]bool{}
		n := 0
		for _, rec := range dev.FlushTrace() {
			if rec.Cat != pmem.CatMeta {
				continue
			}
			if n < 1000 {
				rows = append(rows, fmt.Sprintf("%d,%d", n, rec.Addr))
			}
			regions[uint64(rec.Addr)>>20] = true
			n++
		}
		total := r.Stats.SeqFlushes + r.Stats.RandFlushes
		randPct := 0.0
		if total > 0 {
			randPct = float64(r.Stats.RandFlushes) / float64(total)
		}
		return traceResult{csv: rows, flushes: n, regions: len(regions), randPct: randPct}
	})
	for ni, name := range names {
		res := results[0][ni]
		t.CSV["fig2_"+name] = res.csv
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(res.flushes), fmt.Sprint(res.regions), pct(res.randPct)})
	}
	return []*Table{t}
}

// largePerf reproduces Figure 12 (and 21 on eADR): large-allocation
// throughput. Ralloc is excluded as in the paper (its large path does
// not work in the open-source release); NVAlloc-GC equals NVAlloc-LOG on
// this path.
func largePerf(cfg Config, id string) []*Table {
	cfg = cfg.withDefaults()
	allocators := []string{"PMDK", "nvm_malloc", "PAllocator", "Makalu", "NVAlloc-LOG"}
	benches := largeBenches(cfg)
	nt := len(cfg.Threads)
	mops := grid(cfg, len(benches)*nt, len(allocators), func(r, ai int) float64 {
		bi, ti := r/nt, r%nt
		h, err := OpenHeap(allocators[ai], cfg)
		if err != nil {
			panic(err)
		}
		return benches[bi].run(h, cfg.Threads[ti]).MopsPerSec()
	})
	var tables []*Table
	for bi, b := range benches {
		t := &Table{
			ID:      id,
			Title:   fmt.Sprintf("%s large allocations, Mops/s (virtual time)", b.name),
			Columns: append([]string{"threads"}, allocators...),
		}
		for ti, th := range cfg.Threads {
			row := []string{fmt.Sprint(th)}
			for ai := range allocators {
				row = append(row, f2(mops[bi*nt+ti][ai]))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// fig17 reproduces Figure 17: the throughput cost of bookkeeping-log
// garbage collection.
func fig17(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig17",
		Title:   "Bookkeeping-log GC overhead (NVAlloc-LOG, 4 threads)",
		Columns: []string{"benchmark", "Mops w/o GC", "Mops with GC", "drop", "fastGCs", "slowGCs"},
	}
	benches := largeBenches(cfg)
	type gcResult struct {
		mops       float64
		fast, slow uint64
	}
	results := grid(cfg, len(benches), 2, func(bi, gi int) gcResult {
		gc := gi == 1
		dev := pmem.New(pmem.Config{Size: cfg.DeviceBytes})
		opts := core.DefaultOptions(core.LOG)
		// The paper sets Usage_pmem to a small fraction of the heap so
		// slow GC actually triggers during the run.
		opts.BlogGCThreshold = 16 * 1024
		if !gc {
			opts.BlogGCThreshold = core.BlogGCNever
		}
		h, err := core.Create(dev, opts)
		if err != nil {
			panic(err)
		}
		out := gcResult{mops: benches[bi].run(h, 4).MopsPerSec()}
		if gc {
			out.fast, out.slow = h.Blog().GCCounts()
		}
		return out
	})
	for bi, b := range benches {
		off, on := results[bi][0], results[bi][1]
		drop := 0.0
		if off.mops > 0 {
			drop = 1 - on.mops/off.mops
		}
		t.Rows = append(t.Rows, []string{
			b.name, f2(off.mops), f2(on.mops), pct(drop),
			fmt.Sprint(on.fast), fmt.Sprint(on.slow),
		})
	}
	return []*Table{t}
}

// fig21 reproduces Figure 21: large allocations on emulated eADR.
func fig21(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.Mode = pmem.ModeEADR
	tables := largePerf(cfg, "fig21")
	for _, t := range tables {
		t.Title = "eADR: " + t.Title
	}
	return tables
}
