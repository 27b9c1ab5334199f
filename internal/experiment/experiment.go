// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is a named runner producing
// text tables (and CSV series for the scatter/line figures), executed by
// cmd/nvbench and wrapped by the repository's root benchmarks.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nvalloc/internal/alloc"
	"nvalloc/internal/baseline"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// Table is one result table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// CSV holds optional raw series (e.g. Figure 2's flush scatter),
	// keyed by series name.
	CSV map[string][]string
	// Failures are the checks the experiment held the table to that it
	// failed (crashmc: see gateCrashMC): nvbench exits non-zero when a
	// table has any.
	Failures []string
}

// CSVRows renders the table as CSV lines (header + rows), for plotting.
func (t *Table) CSVRows() []string {
	out := make([]string, 0, len(t.Rows)+1)
	join := func(cells []string) string {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		return strings.Join(quoted, ",")
	}
	out = append(out, join(t.Columns))
	for _, r := range t.Rows {
		out = append(out, join(r))
	}
	return out
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
}

// Config parameterizes an experiment run.
type Config struct {
	// Threads is the thread-count sweep (default {1,2,4,8}).
	Threads []int
	// Scale multiplies operation counts (1.0 = the repository default,
	// which is itself scaled down from the paper's testbed).
	Scale float64
	// DeviceBytes sizes the simulated device (default 512 MiB).
	DeviceBytes uint64
	// Mode runs experiments on ADR (default) or eADR devices.
	Mode pmem.Mode
	// Workers bounds the parallel experiment engine: 0 (default) uses
	// GOMAXPROCS workers, 1 forces the serial engine, N > 1 uses N.
	// Each cell owns its device, so tables are identical at any setting.
	Workers int
}

func (c Config) withDefaults() Config {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.DeviceBytes == 0 {
		c.DeviceBytes = 512 << 20
	}
	return c
}

func (c Config) ops(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Runner produces one or more tables.
type Runner func(cfg Config) []*Table

// Experiments is the registry, keyed by figure/table ID.
var Experiments = map[string]Runner{}

func register(id string, r Runner) { Experiments[id] = r }

// Allocator names (strongly consistent, weakly consistent, ablations).
var (
	StrongAllocators = []string{"PMDK", "nvm_malloc", "PAllocator", "NVAlloc-LOG"}
	WeakAllocators   = []string{"Makalu", "Ralloc", "NVAlloc-GC"}
	AllAllocators    = []string{"PMDK", "nvm_malloc", "PAllocator", "Makalu", "Ralloc", "NVAlloc-LOG", "NVAlloc-GC"}
)

// OpenHeap instantiates an allocator by name on a fresh device.
// Recognized names: the seven allocators above plus the ablations
// "Base" (no optimizations), "Base+Interleaved", "Base+Log",
// "NVAlloc-LOG w/o SM", "NVAlloc-GC w/o SM" and parameterized
// "NVAlloc-LOG sN" (stripes=N), "NVAlloc-LOG suN" (SU=N%).
func OpenHeap(name string, cfg Config) (alloc.Heap, error) {
	dev := pmem.New(pmem.Config{Size: cfg.DeviceBytes, Mode: cfg.Mode})
	return OpenHeapOn(dev, name)
}

// OpenHeapOn instantiates an allocator by name (same names as OpenHeap)
// on dev.
func OpenHeapOn(dev pmem.Dev, name string) (alloc.Heap, error) {
	if preset, ok := baseline.Preset(name); ok {
		return baseline.New(dev, preset)
	}
	opts := core.DefaultOptions(core.LOG)
	// paper is set by the rows that reproduce the paper's layout rather
	// than the variant's own: NVAlloc-LOG as published interleaves bitmaps
	// and tcache with the WAL, and Figure 11 adds the techniques one by one.
	var paper *core.Layout
	sequential := &core.Layout{Bitmap: 1, Tcache: 1, WAL: 1}
	switch {
	case name == "NVAlloc-LOG":
	case name == "NVAlloc-GC":
		opts = core.DefaultOptions(core.GC)
	case name == "NVAlloc-IC":
		opts = core.DefaultOptions(core.IC)
	case name == "NVAlloc-LOG w/o SM":
		opts.Morphing = false
	case name == "NVAlloc-GC w/o SM":
		opts = core.DefaultOptions(core.GC)
		opts.Morphing = false
	case name == "NVAlloc-LOG nocache":
		// Contention baseline: no arena extent caches, no shard pools —
		// every extent operation takes the global allocator lock (the
		// pre-PR 3 hot path).
		opts.NoExtentCache = true
	case name == "Base":
		paper = sequential
		opts.LogBookkeeping = false
	case name == "Base+Interleaved":
		// Only the interleaved bitmap and tcache (Figure 11's +Interleaved).
		paper = &core.Layout{Bitmap: opts.Stripes, Tcache: opts.Stripes, WAL: 1}
		opts.LogBookkeeping = false
	case name == "Base+Log":
		paper = sequential
		opts.LogBookkeeping = true
	case strings.HasPrefix(name, "NVAlloc-LOG su"):
		var su int
		if _, err := fmt.Sscanf(name, "NVAlloc-LOG su%d", &su); err != nil {
			return nil, fmt.Errorf("experiment: bad allocator %q", name)
		}
		opts.SU = float64(su) / 100
	case strings.HasPrefix(name, "NVAlloc-LOG s"):
		if _, err := fmt.Sscanf(name, "NVAlloc-LOG s%d", &opts.Stripes); err != nil {
			return nil, fmt.Errorf("experiment: bad allocator %q", name)
		}
	default:
		return nil, fmt.Errorf("experiment: unknown allocator %q", name)
	}
	if dev.EADR() {
		// The paper disables interleaved mapping when eADR is detected.
		paper = sequential
	}
	if paper != nil {
		return core.CreateLayout(dev, opts, *paper)
	}
	return core.Create(dev, opts)
}

// Names returns the registered experiment IDs, sorted.
func Names() []string {
	out := make([]string, 0, len(Experiments))
	for id := range Experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func mib(v uint64) string  { return fmt.Sprintf("%.1f", float64(v)/(1<<20)) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func msec(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
func usec(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
