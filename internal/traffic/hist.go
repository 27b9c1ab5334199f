package traffic

import (
	"math"
	"math/bits"
)

// Hist is a log-bucketed latency histogram: 8 sub-buckets per power of
// two, covering 1 ns to ~2^40 ns (~18 min) with <= 9% relative error per
// bucket. It is fixed-size, allocation-free to record into, and mergeable
// across workers (each worker records into its own Hist).
const numBuckets = 41 * 8

type Hist struct {
	counts [numBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

func bucketOf(ns uint64) int {
	if ns < 8 {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // ns >= 8 so e >= 3
	sub := (ns >> (uint(e) - 3)) & 7
	b := (e-3)*8 + 8 + int(sub)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// valueOf returns a representative latency for bucket b (its lower
// bound; quantiles are reported conservatively low by < 9%).
func valueOf(b int) uint64 {
	if b < 8 {
		return uint64(b)
	}
	e := (b-8)/8 + 3
	sub := uint64((b - 8) % 8)
	return (8 + sub) << (uint(e) - 3)
}

// Record adds one observation in nanoseconds.
func (h *Hist) Record(ns uint64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the mean observation in ns (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observation in ns.
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns the latency at quantile q in [0,1] (0 when empty).
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return valueOf(b)
		}
	}
	return h.max
}

// P50, P99 and P999 are the reported percentiles.
func (h *Hist) P50() uint64  { return h.Quantile(0.50) }
func (h *Hist) P99() uint64  { return h.Quantile(0.99) }
func (h *Hist) P999() uint64 { return h.Quantile(0.999) }
