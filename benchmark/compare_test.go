package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRuns(t *testing.T, name string, hdr header, metric string, values ...float64) string {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range values {
		rec := record{Header: hdr, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{metric: {Value: v, Unit: unitOf(metric)}}}}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	hdr := header{Workload: "kv-read", NProc: 2, GoMaxProcs: 2, Conns: 2, Seconds: 12}
	// cpu_rel_per_op: lower is better; the cases sit either side of
	// whatever its bound is.
	var bound float64
	for _, d := range endToEnd {
		if d.name == "cpu_rel_per_op" {
			bound = d.bound
		}
	}
	inside, outside := 100*(1+bound*0.8), 100*(1+bound*1.2)
	base := writeRuns(t, "a", hdr, "cpu_rel_per_op", 100, 101, 99, 100, 102, 98)
	for _, tc := range []struct {
		name   string
		hdr    header
		values []float64
		code   int
		word   string
	}{
		{"same", hdr, []float64{100, 101, 99}, 0, "pass"},
		{"cheaper", hdr, []float64{70, 71}, 0, "pass"},
		{"within the bound", hdr, []float64{inside, inside + 1}, 0, "pass"},
		{"dearer than the bound", hdr, []float64{outside, outside + 1}, 1, "regress"},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, base, writeRuns(t, "b", tc.hdr, "cpu_rel_per_op", tc.values...))
		if code != tc.code || !strings.Contains(out.String(), tc.word) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", tc.name, code, tc.code, tc.word, out.String())
		}
	}

	// A baseline whose own runs spread wider than the bound resolves nothing.
	noisy := writeRuns(t, "noisy", hdr, "cpu_rel_per_op", 60, 100, 140, 80, 120, 100)
	var out bytes.Buffer
	if code := compareFiles(&out, noisy, writeRuns(t, "b", hdr, "cpu_rel_per_op", outside, outside+1)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy baseline: exit %d, want 0 with \"unresolved\":\n%s", code, out.String())
	}

	// Results sized for another machine are refused, not compared.
	other := hdr
	other.NProc, other.Conns = 4, 4
	if code := compareFiles(&out, base, writeRuns(t, "b", other, "cpu_rel_per_op", 100)); code != 2 {
		t.Errorf("different sizing: exit %d, want 2", code)
	}
}
