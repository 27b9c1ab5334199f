package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// sizing is what two result files must share before their numbers may
// be compared: a run on four cores is a different experiment.
type sizing struct {
	NProc, GoMaxProcs, Conns int
	Seconds                  float64
}

func (h header) sizing() sizing {
	return sizing{NProc: h.NProc, GoMaxProcs: h.GoMaxProcs, Conns: h.Conns, Seconds: h.Seconds}
}

// resultSet is one -out file: per workload, every value each metric took.
type resultSet struct {
	sizing sizing
	values map[string]map[string][]float64 // workload -> metric -> runs
}

func readResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{values: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rec.Header.Trace != 0 {
			continue // end-to-end numbers come from untraced runs only
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s was not correct", path, n, rec.Header.Workload)
		}
		if len(rs.values) == 0 {
			rs.sizing = rec.Header.sizing()
		} else if rec.Header.sizing() != rs.sizing {
			return nil, fmt.Errorf("%s:%d: runs in one file differ in sizing: %+v vs %+v", path, n, rec.Header.sizing(), rs.sizing)
		}
		w := rs.values[rec.Header.Workload]
		if w == nil {
			w = map[string][]float64{}
			rs.values[rec.Header.Workload] = w
		}
		for name, v := range rec.Result.Metrics {
			w[name] = append(w[name], v.Value)
		}
		for _, d := range perLayer[:wallClock] {
			if v, ok := rec.Metrics[d.name]; ok {
				w[d.name] = append(w[d.name], v.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return rs, nil
}

// verdict judges side b against baseline a for one metric. worse is how
// much worse b's median is than a's, as a share of a's. A metric with
// no bound (the raw wall-clock figures) is reported, not judged.
func verdict(d metricDef, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case d.bound == 0:
		return worse, "info"
	case spread(a) > d.bound:
		// The baseline's own runs disagree by more than the bound: a
		// difference this size cannot be told from noise.
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "regress"
	}
	return worse, "pass"
}

// compareFiles prints, for every end-to-end metric on every workload,
// both medians, the ratio with its base, the bound and a verdict, and
// the raw wall-clock figures beside them for information. It returns 1
// if anything regressed and 2 if the files cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultSet
		if b, err = readResults(pathB); err == nil {
			if a.sizing != b.sizing {
				err = fmt.Errorf("not comparable: %s ran with %+v, %s with %+v", pathA, a.sizing, pathB, b.sizing)
			} else {
				return printComparison(w, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
	return 2
}

func printComparison(w io.Writer, a, b *resultSet) int {
	fmt.Fprintf(w, "A is the base of every ratio. sizing %+v\n", a.sizing)
	fmt.Fprintf(w, "%-13s %-19s %13s %13s %9s %8s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "worse", "bound", "A iqr", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer[:wallClock]...) {
			va, vb := a.values[wl.name][d.name], b.values[wl.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(d, va, vb)
			if word == "regress" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-19s %13.6g %13.6g %9.4f %+8.4f %7.3f %7.4f  %s (%d vs %d runs)\n",
				wl.name, d.name, median(va), median(vb), median(vb)/median(va), worse, d.bound, spread(va), word, len(va), len(vb))
		}
	}
	return code
}
