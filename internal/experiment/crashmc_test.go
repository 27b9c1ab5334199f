package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashMCConcTableShape checks the concurrent-family table the CI
// baseline enforces: every NVAlloc target × family row must report real
// conflicts, executed variant schedules, >= 50% DPOR pruning, and zero
// violations. Conflict and pruning numbers are recording-derived, so the
// scaled-down run asserts the same floors as CI's full enumeration.
func TestCrashMCConcTableShape(t *testing.T) {
	tabs := runCrashMC(Config{Threads: []int{1}, Scale: 0.05, DeviceBytes: 256 << 20}.withDefaults())
	if len(tabs) != 8 {
		t.Fatalf("runCrashMC produced %d tables, want 8", len(tabs))
	}
	conc := tabs[3]
	if conc.ID != "crashmc-concurrent" {
		t.Fatalf("fourth table is %q", conc.ID)
	}
	wantRows := len(concTargetNames) * 3 // three families per target
	if len(conc.Rows) != wantRows {
		t.Fatalf("concurrent table has %d rows, want %d:\n%v", len(conc.Rows), wantRows, conc.Rows)
	}
	fence := tabs[4]
	if fence.ID != "crashmc-fence-elision" {
		t.Fatalf("fifth table is %q", fence.ID)
	}
	if len(fence.Rows) != 1 || fence.Rows[0][0] != "NVAlloc-LOG" {
		t.Fatalf("fence-elision table rows: %v, want one NVAlloc-LOG row", fence.Rows)
	}
	if v := cell(t, fence, 0, colIndex(t, fence, "violations")); v != 0 {
		t.Errorf("fence-elision: %.0f oracle violations", v)
	}
	wb := tabs[5]
	if wb.ID != "crashmc-write-back" {
		t.Fatalf("sixth table is %q", wb.ID)
	}
	if len(wb.Rows) != 1 || wb.Rows[0][0] != "NVAlloc-LOG" {
		t.Fatalf("write-back table rows: %v, want one NVAlloc-LOG row", wb.Rows)
	}
	for col, min := range map[string]float64{"checkpoint_moves": 8, "morphs": 1, "foreign_reformats": 1, "recovery_cuts": 10} {
		if v := cell(t, wb, 0, colIndex(t, wb, col)); v < min {
			t.Errorf("write-back: %s = %.0f, want >= %.0f", col, v, min)
		}
	}
	if v := cell(t, wb, 0, colIndex(t, wb, "violations")); v != 0 {
		t.Errorf("write-back: %.0f oracle violations", v)
	}
	pub := tabs[6]
	if pub.ID != "crashmc-publish" {
		t.Fatalf("seventh table is %q", pub.ID)
	}
	if len(pub.Rows) != 1 || pub.Rows[0][0] != "NVAlloc-LOG" {
		t.Fatalf("publish table rows: %v, want one NVAlloc-LOG row", pub.Rows)
	}
	for col, min := range map[string]float64{"checkpoint_moves": 8, "morphs": 1, "replaces": 100,
		"cross_arena": 6, "republished": 50, "extents": 8, "recovery_cuts": 40} {
		if v := cell(t, pub, 0, colIndex(t, pub, col)); v < min {
			t.Errorf("publish: %s = %.0f, want >= %.0f", col, v, min)
		}
	}
	if v := cell(t, pub, 0, colIndex(t, pub, "violations")); v != 0 {
		t.Errorf("publish: %.0f oracle violations", v)
	}
	comp := tabs[7]
	if comp.ID != "crashmc-compaction" {
		t.Fatalf("eighth table is %q", comp.ID)
	}
	if len(comp.Rows) != 1 || comp.Rows[0][0] != "NVAlloc-LOG" {
		t.Fatalf("compaction table rows: %v, want one NVAlloc-LOG row", comp.Rows)
	}
	for col, min := range map[string]float64{"over_threshold": 100, "runtime_compactions": 2, "recovery_cuts": 60} {
		if v := cell(t, comp, 0, colIndex(t, comp, col)); v < min {
			t.Errorf("compaction: %s = %.0f, want >= %.0f", col, v, min)
		}
	}
	if v := cell(t, comp, 0, colIndex(t, comp, "violations")); v != 0 {
		t.Errorf("compaction: %.0f oracle violations", v)
	}
	for ri, row := range conc.Rows {
		who := row[0] + "/" + row[1]
		if c := cell(t, conc, ri, colIndex(t, conc, "conflicts")); c < 1 {
			t.Errorf("%s: no conflicting pairs", who)
		}
		if s := cell(t, conc, ri, colIndex(t, conc, "schedules_run")); s < 1 {
			t.Errorf("%s: no variant schedules executed", who)
		}
		if p := cell(t, conc, ri, colIndex(t, conc, "pruning")); p < 50 {
			t.Errorf("%s: DPOR pruned only %.0f%%, want >= 50%%", who, p)
		}
		if v := cell(t, conc, ri, colIndex(t, conc, "violations")); v != 0 {
			t.Errorf("%s: %.0f oracle violations", who, v)
		}
	}
}

// TestCrashMCBaselineWrite checks the -crashmc.update generator: a clean
// run writes a parseable baseline whose floors the run itself satisfies,
// and any refusal reason suppresses the write entirely.
func TestCrashMCBaselineWrite(t *testing.T) {
	dir := t.TempDir()
	bl := &baselineBuild{
		Boundaries:  map[string]int{"NVAlloc-LOG": 638, "PMDK": 760},
		TornClasses: map[string][]string{"NVAlloc-LOG": {"wal-entry"}, "PMDK": {"other"}},
	}
	path := filepath.Join(dir, "baseline.json")
	bl.write(path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("clean run wrote nothing: %v", err)
	}
	var doc crashBaseline
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("generated baseline does not parse: %v", err)
	}
	if got := doc.MinBoundaries["NVAlloc-LOG"]; got <= 0 || got > 638 {
		t.Errorf("floor %d not in (0, 638]", got)
	}
	if _, ok := doc.RequiredTornClasses["PMDK"]; ok {
		t.Error("baseline-model allocator got a torn-class requirement")
	}
	if _, ok := doc.RequiredTornClasses["NVAlloc-LOG"]; !ok {
		t.Error("NVAlloc torn classes missing")
	}

	refused := filepath.Join(dir, "refused.json")
	bl.refuse("synthetic violation")
	bl.write(refused)
	if _, err := os.Stat(refused); !os.IsNotExist(err) {
		t.Errorf("refused update still wrote a file (stat err %v)", err)
	}
}
