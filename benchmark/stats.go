package main

import (
	"math"
	"sort"
)

// quantile returns the exact order statistic of sorted at q in [0, 1]:
// the smallest sample with at least a share q of the samples at or
// below it. No interpolation and no buckets (traffic.Hist's are 9 % wide).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentiles are the percentiles a latency report may quote.
var tailPercentiles = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// supportedTail is the percentile rule: the highest percentile of
// tailPercentiles with at least ten samples beyond it. Below twenty
// samples not even the median qualifies and it returns 0.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-6 { // 1-p is inexact in binary
			best = p
		}
	}
	return best
}

// tailAt returns the latency at percentile p, or at the highest
// supported percentile when the sample cannot resolve p; it reports
// which percentile it used.
func tailAt(sorted []float64, p float64) (value, used float64) {
	if s := supportedTail(len(sorted)); s < p {
		p = s
	}
	return quantile(sorted, p), p
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tenthMean is the quiet-machine estimator: the mean of the best tenth
// of the windows (at least one) - the highest when higher is better,
// the lowest otherwise. Interference on a shared machine only ever
// makes a window worse, and on the sizing machine it came in bursts
// that halved a core's speed for a second at a time; the best windows
// repeat where the median of all windows does not.
func tenthMean(windows []float64, highest bool) float64 {
	if len(windows) == 0 {
		return 0
	}
	s := sortedCopy(windows)
	k := max(len(s)/10, 1)
	if highest {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(k)
}
