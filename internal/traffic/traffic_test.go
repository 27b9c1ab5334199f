package traffic

import (
	"bufio"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the order statistic Hist.Quantile approximates: the
// smallest sample with at least ceil(q*n) samples at or below it.
func exactQuantile(sorted []uint64, q float64) uint64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistQuantilesAgainstOrderStatistics holds every quantile of small
// samples to the histogram's documented contract: the lower bound of the
// bucket holding the exact order statistic, so never above it and less
// than one sub-bucket (1/8) below it, and exact below 16 ns where buckets
// are one nanosecond wide.
func TestHistQuantilesAgainstOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := map[string][]uint64{
		"one":        {4242},
		"tiny exact": {0, 1, 2, 3, 5, 8, 13, 15},
		"ties":       {100, 100, 100, 100, 7000, 7000},
	}
	uniform := make([]uint64, 37)
	for i := range uniform {
		uniform[i] = uint64(rng.Intn(1_000_000))
	}
	samples["uniform"] = uniform
	heavy := make([]uint64, 200)
	for i := range heavy {
		heavy[i] = uint64(math.Exp(rng.Float64() * 25)) // 1 ns .. 72 s, log-uniform
	}
	samples["log-uniform"] = heavy

	for name, s := range samples {
		var h Hist
		var sum uint64
		for _, v := range s {
			h.Record(v)
			sum += v
		}
		sorted := append([]uint64(nil), s...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if h.Count() != uint64(len(s)) || h.Max() != sorted[len(sorted)-1] || h.Mean() != float64(sum)/float64(len(s)) {
			t.Errorf("%s: count %d max %d mean %g", name, h.Count(), h.Max(), h.Mean())
		}
		for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			got, exact := h.Quantile(q), exactQuantile(sorted, q)
			if got > exact || float64(got) < float64(exact)*8/9-1 {
				t.Errorf("%s: Quantile(%g) = %d, order statistic %d", name, q, got, exact)
			}
			if exact < 16 && got != exact {
				t.Errorf("%s: Quantile(%g) = %d, want exactly %d", name, q, got, exact)
			}
		}
	}

	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must read 0")
	}
}

// TestHistMergeEqualsRecordingTogether: per-worker histograms merged are
// the histogram of all the samples.
func TestHistMergeEqualsRecordingTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, all Hist
	for i := 0; i < 500; i++ {
		v := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
		all.Record(v)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the one recorded in one piece")
	}
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// rankFrequencySlope fits log(frequency) against log(rank+1) over the
// hottest ranks, where counts are large enough for the fit to be tight.
// A zipfian source with exponent s and offset 1 reads -s.
func rankFrequencySlope(t *testing.T, counts []int, ranks int) float64 {
	t.Helper()
	var xs, ys []float64
	for k := 0; k < ranks; k++ {
		if counts[k] < 100 {
			t.Fatalf("rank %d drawn only %d times: sample too small to fit", k, counts[k])
		}
		xs = append(xs, math.Log(float64(k+1)))
		ys = append(ys, math.Log(float64(counts[k])))
	}
	return slope(xs, ys)
}

// TestGenScriptKeyPopularityIsZipfian: the replay script the crash
// harness records draws keys with exponent 1.2, hottest key first.
func TestGenScriptKeyPopularityIsZipfian(t *testing.T) {
	const keys = 64
	sc := GenScript(3, 30000, keys)
	index := make(map[string]int, keys)
	for i, k := range sc.Keys {
		index[k] = i
	}
	counts := make([]int, keys)
	for _, op := range sc.Ops {
		counts[index[op.Key]]++
	}
	if got := rankFrequencySlope(t, counts, 12); math.Abs(got+1.2) > 0.08 {
		t.Fatalf("rank-frequency slope %.3f, want -1.2", got)
	}
	if !sort.SliceIsSorted(counts[:6], func(i, j int) bool { return counts[i] > counts[j] }) {
		t.Fatalf("hottest keys out of order: %v", counts[:6])
	}
}

// TestEngineKeysZipfianAndMutationsSharded drives the engine's operation
// generator into a discarded writer. Reads keep the configured skew over
// the whole universe; every mutation lands inside the universe on the
// worker's own congruence class — the property that makes "the last
// acknowledged mutation per key" well-defined for the durability oracle.
func TestEngineKeysZipfianAndMutationsSharded(t *testing.T) {
	const (
		conns = 4
		keys  = 1000
		skew  = 1.3
	)
	e := New(Config{Conns: conns, Keys: keys, ZipfS: skew, Seed: 5})
	bw := bufio.NewWriter(io.Discard)
	for w := 0; w < conns; w++ {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		zipf := rand.NewZipf(rng, e.cfg.ZipfS, 1, e.cfg.Keys-1)
		cur := session{rng: rng, phase: &e.cfg.Phases[0]}
		seqs := make(map[uint64]uint64)
		reads := make([]int, keys)
		mutations := 0
		for i := 0; i < 60000; i++ {
			p, err := e.sendOp(bw, &cur, zipf, seqs, w)
			if err != nil {
				t.Fatal(err)
			}
			if p.key >= keys {
				t.Fatalf("worker %d: %v key %d outside the universe", w, p.kind, p.key)
			}
			if p.kind == OpGet {
				reads[p.key]++
				continue
			}
			mutations++
			if p.key%conns != uint64(w) {
				t.Fatalf("worker %d: %v on key %d, another worker's shard", w, p.kind, p.key)
			}
			if p.kind == OpSet && p.seq != seqs[p.key] {
				t.Fatalf("worker %d: SET of key %d carries seq %d, map says %d", w, p.key, p.seq, seqs[p.key])
			}
		}
		if mutations == 0 {
			t.Fatalf("worker %d generated no mutation", w)
		}
		if got := rankFrequencySlope(t, reads, 12); math.Abs(got+skew) > 0.08 {
			t.Fatalf("worker %d: read rank-frequency slope %.3f, want %.1f", w, got, -skew)
		}
	}
}
