package experiment

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/workload"
)

// Real-concurrency execution mode: the same workload drivers on the same
// allocators, but on a direct device — plain memory, no virtual-time
// model, flushes reduced to counters — so goroutines contend for real and
// the reported throughput is wall-clock Mops/s.
//
// The "real" experiment is registered in Experiments but deliberately NOT
// in Order: it is wall-clock (machine-dependent, nondeterministic), so it
// must never ride along in `-exp all`, the -list output, or the smoke
// tables that CI compares bit-for-bit.

func init() {
	Experiments["real"] = realExp
}

// OpenHeapDirect instantiates an allocator by name (same names as
// OpenHeap) on a fresh direct device.
func OpenHeapDirect(name string, cfg Config) (alloc.Heap, error) {
	cfg = cfg.withDefaults()
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: cfg.DeviceBytes})
	if err != nil {
		return nil, err
	}
	return OpenHeapOn(dev, name)
}

// realBenches are the wall-clock workloads: the thread-scaling trio
// (Larson, Threadtest, Prod-con) with the same parameters as the
// virtual-time figures, so flush-per-op ratios stay comparable.
func realBenches(cfg Config) []struct {
	name string
	run  func(h alloc.Heap, threads int) workload.Result
} {
	return []struct {
		name string
		run  func(h alloc.Heap, threads int) workload.Result
	}{
		{
			"Larson-small",
			func(h alloc.Heap, t int) workload.Result {
				return workload.Larson(h, t, 256, cfg.ops(10000), 64, 256)
			},
		},
		{
			"Threadtest",
			func(h alloc.Heap, t int) workload.Result {
				return workload.Threadtest(h, t, cfg.ops(10), 1000, 64)
			},
		},
		{
			"Prod-con",
			func(h alloc.Heap, t int) workload.Result {
				return workload.ProdCon(h, t, cfg.ops(10000), 64)
			},
		},
	}
}

// realExp produces one wall-clock throughput table per benchmark. Cells
// run strictly serially — the parallel engine would have cells stealing
// each other's CPUs and the wall-clock numbers would measure the engine,
// not the allocator.
func realExp(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	benches := realBenches(cfg)
	tables := make([]*Table, 0, len(benches))
	for _, b := range benches {
		t := &Table{
			ID:      "real-" + b.name,
			Title:   fmt.Sprintf("%s wall-clock throughput (Mops/s, real goroutines)", b.name),
			Columns: []string{"allocator"},
		}
		for _, th := range cfg.Threads {
			t.Columns = append(t.Columns, fmt.Sprintf("T=%d", th))
		}
		for _, name := range AllAllocators {
			row := []string{name}
			for _, th := range cfg.Threads {
				h, err := OpenHeapDirect(name, cfg)
				if err != nil {
					panic(err)
				}
				r := b.run(h, th)
				row = append(row, f2(r.WallMopsPerSec()))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}
