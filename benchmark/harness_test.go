package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"nvalloc/internal/traffic"
)

func TestPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	sorted := make([]float64, 2880)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, used := tailAt(sorted, 0.999); used != 0.99 || v != 2852 {
		t.Errorf("tailAt(2880 samples, p99.9) = %g at p%g, want 2852 at p99", v, used*100)
	}
	if v := quantile(sorted, 0.5); v != 1440 {
		t.Errorf("median of 1..2880 = %g, want 1440", v)
	}
	if v := quantile(sorted[:1], 0.99); v != 1 {
		t.Errorf("quantile of one sample = %g", v)
	}
}

func TestTenthMean(t *testing.T) {
	windows := make([]float64, 30)
	for i := range windows {
		windows[i] = 100 // interference slows windows, never speeds them up
	}
	windows[3], windows[17], windows[20] = 40, 70, 10
	if got := tenthMean(windows, true); got != 100 {
		t.Errorf("tenthMean(highest) = %g, want 100: slowed windows must not move it", got)
	}
	windows[5], windows[6], windows[7] = 130, 120, 110
	if got := tenthMean(windows, true); got != 120 {
		t.Errorf("tenthMean(highest) = %g, want the mean of the top 3 of 30 = 120", got)
	}
	if got := tenthMean(windows, false); got != 40 {
		t.Errorf("tenthMean(lowest) = %g, want the mean of 10, 40, 70 = 40", got)
	}
	if got := tenthMean([]float64{5, 9}, true); got != 9 {
		t.Errorf("tenthMean of two windows = %g, want 9", got)
	}
	if got := tenthMean(nil, true); got != 0 {
		t.Errorf("tenthMean of nothing = %g", got)
	}
}

// setup_s must not move when the machine runs at another speed while a
// run's set-ups are timed, and must move when a set-up does more work.
func TestSetupTimeCancelsMachineSpeed(t *testing.T) {
	w := workload{setupRef: 100 * time.Millisecond}
	report := func(scale float64, wallMs ...float64) float64 {
		r := &run{w: &w, rep: newReport()}
		var times []setupTime
		for i, ms := range wallMs {
			// The machine's speed also wanders from one set-up to the next.
			speed := scale * (1 + 0.2*float64(i%3))
			times = append(times, setupTime{
				wall: time.Duration(ms * speed * float64(time.Millisecond)),
				ref:  time.Duration(100 * speed * float64(time.Millisecond)),
			})
		}
		r.reportSetup(times)
		return r.rep.values["setup_s"]
	}
	quiet := report(1, 250, 260, 240, 250, 255)
	if math.Abs(quiet-0.25) > 1e-6 {
		t.Errorf("setup_s = %v on the quiet machine, want 0.25", quiet)
	}
	if slow := report(1.6, 250, 260, 240, 250, 255); math.Abs(slow-quiet) > 1e-6 {
		t.Errorf("setup_s = %v at 1.6 times the time per step, %v on the quiet machine", slow, quiet)
	}
	if more := report(1, 300, 312, 288, 300, 306); math.Abs(more/quiet-1.2) > 1e-6 {
		t.Errorf("setup_s = %v with 20%% more set-up work, want 1.2 times %v", more, quiet)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same ten values.
	v := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	q1, q2, q3 := quartiles(v)
	if q1 != 11.75 || q2 != 14.5 || q3 != 17.25 {
		t.Errorf("quartiles = %g %g %g, want 11.75 14.5 17.25", q1, q2, q3)
	}
	if got, want := spread(v), 5.5/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		if !w.service {
			a, b, c := larsonStreamHash(7, 2, 5000), larsonStreamHash(7, 2, 5000), larsonStreamHash(8, 2, 5000)
			if a != b || a == c {
				t.Errorf("%s: stream hashes %x %x %x: want same seed equal, other seed different", w.name, a, b, c)
			}
			continue
		}
		w := w
		z := newZipf(w.universe, w.zipf)
		a, b, c := streamHash(&w, z, 7, 2, 5000), streamHash(&w, z, 7, 2, 5000), streamHash(&w, z, 8, 2, 5000)
		if a != b || a == c {
			t.Errorf("%s: stream hashes %x %x %x: want same seed equal, other seed different", w.name, a, b, c)
		}
		// Mutations stay on the connection's own shard; the mix is the
		// workload's.
		s := newStream(&w, z, 7, 1, 2)
		var kinds [4]int
		for i := 0; i < 20000; i++ {
			o := s.next()
			kinds[o.kind]++
			if o.key >= w.universe {
				t.Fatalf("%s: key %d outside the universe", w.name, o.key)
			}
			if o.kind != traffic.OpGet && o.key%2 != 1 {
				t.Fatalf("%s: mutation of key %d left shard 1", w.name, o.key)
			}
		}
		for k, share := range w.mix {
			if got := float64(kinds[k]) / 200; math.Abs(got-float64(share)) > 1.5 {
				t.Errorf("%s: %s share %.1f%%, want %d%%", w.name, traffic.OpKind(k), got, share)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(100_000, 0.99)
	rng := splitmix(1)
	const n = 200_000
	var top, top100 int
	for i := 0; i < n; i++ {
		r := z.rank(&rng)
		if r >= z.n {
			t.Fatalf("rank %d out of range", r)
		}
		if r == 0 {
			top++
		}
		if r < 100 {
			top100++
		}
	}
	// P(rank 0) = 1/zeta(n, theta), about 8 % here; the top 100 ranks
	// draw about 43 %.
	if p := float64(top) / n; math.Abs(p-1/z.zetan) > 0.01 {
		t.Errorf("P(rank 0) = %.3f, want %.3f", p, 1/z.zetan)
	}
	if p := float64(top100) / n; p < 0.38 || p > 0.48 {
		t.Errorf("P(rank < 100) = %.3f, want about 0.43", p)
	}
}

func TestValuePoolMatchesValBytes(t *testing.T) {
	p, err := newValuePool(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{0, 3, 999_999, 1 << 40} {
		for _, j := range []int{0, 17, poolEntries - 1} {
			want := traffic.ValBytes(key, p.seq(key, j), 777)
			if string(want) != string(p.value(j, 777)) {
				t.Fatalf("key %d pool %d: pool bytes differ from traffic.ValBytes", key, j)
			}
		}
	}
	body := append([]byte(nil), p.value(5, 300)...)
	if !p.selfCheck(body) {
		t.Fatal("selfCheck rejected an intact body")
	}
	body[200] ^= 1
	if p.selfCheck(body) {
		t.Fatal("selfCheck accepted a flipped byte")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go
// and workload.go together.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q) does not match %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, metrics.go has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, m, d)
		}
	}
}

// TestOpenLoopCountsFromIntendedTime stalls the server for 50 ms in the
// middle of an open-loop run. Timed from the intended send time, the
// stall lands on every request that was due while it lasted and shows
// up in the generator's own lateness; timed from the actual send, it
// would land on one request.
func TestOpenLoopCountsFromIntendedTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	f := newFakeServer(t)
	f.stallAt, f.stall = 300, stall
	w := workloads[0]
	pool, err := newValuePool(w.maxValue())
	if err != nil {
		t.Fatal(err)
	}
	m := make(model, w.universe)
	c := newClient(0, 1, pool, m)
	if err := c.dial(f.addr()); err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// Writes only: reads of keys the fake never held would be nil,
	// which the model also expects, but SETs keep the test about time.
	s := newStream(&w, newZipf(w.universe, w.zipf), 1, 0, 1)
	s.writesOnly = true
	// 2000/s for 0.5 s: the stall covers about 100 arrivals.
	res, err := openLoop([]*client{c}, []*stream{s}, 2000, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.counts.failed() != 0 {
		t.Fatalf("failed ops against a correct server: %+v (%s)", c.counts, c.firstMismatch)
	}
	if res.sent != 1000 || res.answered != 1000 {
		t.Fatalf("sent %d answered %d, want 1000 each", res.sent, res.answered)
	}
	slow := 0
	for _, l := range res.latencies {
		if l > float64(stall.Microseconds())/5 {
			slow++
		}
	}
	// A uniform drain of the stall delays about 100 arrivals by more
	// than a fifth of it.
	if slow < 50 {
		t.Errorf("%d requests saw more than %v of latency; the stall should reach the ~100 requests due while it lasted", slow, stall/5)
	}
	if max := res.latencies[len(res.latencies)-1]; max < float64(stall.Microseconds())*0.8 {
		t.Errorf("worst latency %.0f us is below the %v stall", max, stall)
	}
	if p50 := quantile(res.latencies, 0.5); p50 > float64(stall.Microseconds())/5 {
		t.Errorf("median latency %.0f us: the stall should not reach requests due before or well after it", p50)
	}
}
