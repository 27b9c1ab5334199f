package experiment

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// tiny is a fast configuration for unit-testing the runners; medium is
// for shape checks that need enough live objects for search costs and
// flush traces to be visible.
var (
	tiny   = Config{Threads: []int{1, 2}, Scale: 0.05, DeviceBytes: 256 << 20}
	medium = Config{Threads: []int{1, 2}, Scale: 0.5, DeviceBytes: 256 << 20}
)

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func colIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("column %q not in %v", name, tab.Columns)
	return -1
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "fig2", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16a", "fig16b", "fig17", "fig18",
		"fig19", "fig20", "fig21", "table2", "hashindex",
		"contention", "crashmc", "hotpath",
	}
	for _, id := range want {
		if Experiments[id] == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Names()), len(want))
	}
}

func TestOpenHeapNames(t *testing.T) {
	names := append([]string{}, AllAllocators...)
	names = append(names, "Base", "Base+Interleaved", "Base+Log",
		"NVAlloc-LOG w/o SM", "NVAlloc-GC w/o SM",
		"NVAlloc-LOG s4", "NVAlloc-LOG su30", "NVAlloc-LOG nocache")
	for _, n := range names {
		h, err := OpenHeap(n, Config{DeviceBytes: 64 << 20})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		th := h.NewThread()
		if _, err := th.Malloc(64); err != nil {
			t.Fatalf("%s: malloc: %v", n, err)
		}
		th.Close()
	}
	if _, err := OpenHeap("bogus", Config{DeviceBytes: 64 << 20}); err == nil {
		t.Fatal("unknown allocator must error")
	}
}

func TestFig1aShapeReflushDominates(t *testing.T) {
	tabs := fig1a(tiny)
	tab := tabs[0]
	if len(tab.Rows) != 12 { // 4 benchmarks x 3 allocators
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// The paper: reflushes account for a large share (40.4-99.7%) on at
	// least the fixed-size benchmarks.
	high := 0
	for i := range tab.Rows {
		if cell(t, tab, i, 2) > 40 {
			high++
		}
	}
	if high < 6 {
		t.Fatalf("only %d of 12 rows show the reflush problem", high)
	}
}

func TestFig9ShapeNVAllocWins(t *testing.T) {
	tabs := smallPerf(tiny, "fig9", StrongAllocators)
	nv := -1
	for _, tab := range tabs {
		nv = colIndex(t, tab, "NVAlloc-LOG")
		pm := colIndex(t, tab, "PMDK")
		for r := range tab.Rows {
			if cell(t, tab, r, nv) <= cell(t, tab, r, pm) {
				t.Errorf("%s row %d: NVAlloc-LOG (%v) not faster than PMDK (%v)",
					tab.Title, r, tab.Rows[r][nv], tab.Rows[r][pm])
			}
		}
	}
}

func TestFig10ShapeGCVariantWins(t *testing.T) {
	tabs := smallPerf(tiny, "fig10", WeakAllocators)
	for _, tab := range tabs {
		nv := colIndex(t, tab, "NVAlloc-GC")
		mk := colIndex(t, tab, "Makalu")
		for r := range tab.Rows {
			if cell(t, tab, r, nv) <= cell(t, tab, r, mk) {
				t.Errorf("%s row %d: NVAlloc-GC not faster than Makalu", tab.Title, r)
			}
		}
	}
}

func TestFig11ShapeAblationsImprove(t *testing.T) {
	tabs := fig11(tiny)
	for _, tab := range tabs {
		vs := colIndex(t, tab, "vsBase")
		last := cell(t, tab, len(tab.Rows)-1, vs) // full NVAlloc-LOG
		if last >= 1.0 {
			t.Errorf("%s: full NVAlloc-LOG not faster than Base (%.2f)", tab.Title, last)
		}
	}
}

func TestFig12ShapeLargeAllocs(t *testing.T) {
	tabs := largePerf(medium, "fig12")
	for _, tab := range tabs {
		nv := colIndex(t, tab, "NVAlloc-LOG")
		for _, base := range []string{"PMDK", "Makalu"} {
			b := colIndex(t, tab, base)
			for r := range tab.Rows {
				if cell(t, tab, r, nv) <= cell(t, tab, r, b) {
					t.Errorf("%s row %d: NVAlloc-LOG not faster than %s", tab.Title, r, base)
				}
			}
		}
	}
}

func TestFig2ProducesTraces(t *testing.T) {
	tabs := fig2(medium)
	tab := tabs[0]
	if len(tab.CSV) != 5 {
		t.Fatalf("want 5 CSV series, got %d", len(tab.CSV))
	}
	for name, rows := range tab.CSV {
		if len(rows) < 100 {
			t.Errorf("series %s has only %d rows", name, len(rows))
		}
	}
	// The in-place allocators must touch more distinct regions than the
	// log-structured one.
	regions := map[string]float64{}
	for i, row := range tab.Rows {
		regions[row[0]] = cell(t, tab, i, 2)
	}
	if regions["NVAlloc-LOG"] >= regions["PMDK"] {
		t.Errorf("log bookkeeping should localize metadata writes: %v", regions)
	}
}

func TestFig18ShapeRecoveryOrdering(t *testing.T) {
	cfg := tiny
	ms := map[string]int64{}
	for _, name := range []string{"nvm_malloc", "PMDK", "Ralloc", "Makalu"} {
		ms[name] = recoveryRun(cfg, name, 5000)
	}
	if !(ms["nvm_malloc"] < ms["PMDK"] && ms["PMDK"] < ms["Ralloc"] && ms["Ralloc"] < ms["Makalu"]) {
		t.Fatalf("recovery ordering wrong: %v", ms)
	}
}

func TestTable2AndPrint(t *testing.T) {
	tabs := table2(Config{})
	var buf bytes.Buffer
	tabs[0].Print(&buf)
	out := buf.String()
	for _, want := range []string{"NVAlloc-LOG", "NVAlloc-GC", "slab morphing", "log-structured"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestFig16bSUSweepRuns(t *testing.T) {
	tabs := fig16b(tiny)
	if len(tabs[0].Rows) != 4 {
		t.Fatalf("want 4 SU rows, got %d", len(tabs[0].Rows))
	}
}

func TestFig19EADRFlat(t *testing.T) {
	tabs := fig19(tiny)
	tab := tabs[0]
	// On eADR the stripe count must not matter: max/min across stripes
	// stays close to 1.
	lo, hi := 1e18, 0.0
	for c := 1; c < len(tab.Columns); c++ {
		v := cell(t, tab, 0, c)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 1.25 {
		t.Fatalf("eADR stripe sweep not flat: min=%f max=%f", lo, hi)
	}
}

// TestFig17GCOverheadSmall holds each row to the median of five runs. The
// workloads run four free-running goroutines whose real interleaving orders
// the virtual clocks: Larson-large reads 24.0 % in about 19 runs of 20 and
// anything from 17 % to 28.5 % in the rest, more often on a loaded machine.
// One run failed the 25 % limit in 2 of 50 loops on two idle cores, the
// median of three in 1 of 50 with the whole suite running beside it.
func TestFig17GCOverheadSmall(t *testing.T) {
	var runs [5]*Table
	for i := range runs {
		runs[i] = fig17(tiny)[0]
	}
	drop := colIndex(t, runs[0], "drop")
	for r := range runs[0].Rows {
		d := make([]float64, len(runs))
		for i, tab := range runs {
			d[i] = cell(t, tab, r, drop)
		}
		sort.Float64s(d)
		if med := d[len(d)/2]; med > 25 {
			t.Errorf("GC overhead too high: %s = %.1f%% (median of %v)", runs[0].Rows[r][0], med, d)
		}
	}
}

func TestTableCSVRows(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", `has,comma "q"`}},
	}
	rows := tab.CSVRows()
	if len(rows) != 2 || rows[0] != "a,b" {
		t.Fatalf("csv rows: %v", rows)
	}
	if rows[1] != `1,"has,comma ""q"""` {
		t.Fatalf("quoting wrong: %s", rows[1])
	}
}
