// Package workload implements the six benchmarks of the paper's
// evaluation — Threadtest, Prod-con, Shbench, Larson (small and large),
// DBMStest and Fragbench — as allocator-agnostic drivers over the
// alloc.Heap interface, plus the shared multi-threaded runner that
// collects virtual-time results.
//
// Sizes and operation counts are scaled down from the paper's testbed
// (which allocates gigabytes per run) by a configurable factor; all
// ratios — object size distributions, delete fractions, live-set bounds —
// match Table 1 and Section 6.2.
package workload

import (
	"math/rand"
	"sync"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// Result summarizes one benchmark run.
type Result struct {
	Name    string
	Threads int
	// Ops is the total operations (allocations + frees) completed.
	Ops uint64
	// MakespanNS is the maximum worker virtual clock: the run's duration.
	// Zero on a direct device, which has no virtual clock.
	MakespanNS int64
	// PeakBytes is the heap's peak committed memory during the run.
	PeakBytes uint64
	// UsedBytes is the committed memory at the end of the run.
	UsedBytes uint64
	// Stats is the device counter delta for the run.
	Stats pmem.Stats
}

// MopsPerSec returns throughput in million operations per (virtual)
// second.
func (r Result) MopsPerSec() float64 {
	if r.MakespanNS <= 0 {
		return 0
	}
	return float64(r.Ops) * 1e3 / float64(r.MakespanNS)
}

// Run drives `threads` workers against the heap. body returns the number
// of operations the worker performed. The device's merged stats are reset
// before the run so Result.Stats covers only this run. Worker w runs on
// the w-th handle the heap hands out: handles are created in worker
// order before any worker starts, so which arena a worker (and its fixed
// rng seed) lands on is the heap's rule, not goroutine start order.
func Run(name string, h alloc.Heap, threads int, body func(w int, th alloc.Thread, rng *rand.Rand) uint64) Result {
	h.Device().ResetStats()
	h.ResetPeak()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total uint64
		span  int64
	)
	ths := make([]alloc.Thread, threads)
	for w := range ths {
		ths[w] = h.NewThread()
	}
	for w, th := range ths {
		wg.Add(1)
		go func(w int, th alloc.Thread) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 12345))
			ops := body(w, th, rng)
			now := th.Ctx().Now
			th.Close()
			mu.Lock()
			total += ops
			if now > span {
				span = now
			}
			mu.Unlock()
		}(w, th)
	}
	wg.Wait()
	return Result{
		Name:       name,
		Threads:    threads,
		Ops:        total,
		MakespanNS: span,
		PeakBytes:  h.Peak(),
		UsedBytes:  h.Used(),
		Stats:      h.Device().Stats(),
	}
}

// Threadtest: i iterations; per iteration each thread allocates n objects
// of a fixed size and then frees them all (Berger et al.; paper uses
// s = 64 B).
func Threadtest(h alloc.Heap, threads, iters, n int, size uint64) Result {
	return Run("Threadtest", h, threads, func(_ int, th alloc.Thread, _ *rand.Rand) uint64 {
		ptrs := make([]pmem.PAddr, 0, n)
		ops := uint64(0)
		for it := 0; it < iters; it++ {
			ptrs = ptrs[:0]
			for j := 0; j < n; j++ {
				p, err := th.Malloc(size)
				if err != nil {
					return ops
				}
				ptrs = append(ptrs, p)
				ops++
			}
			for _, p := range ptrs {
				if th.Free(p) == nil {
					ops++
				}
			}
		}
		return ops
	})
}

// ProdCon: pairs of threads; the producer allocates objects and the
// consumer frees them (Hoard's producer-consumer pattern). threads must
// be even >= 2; an odd straggler runs producer+consumer in-line.
func ProdCon(h alloc.Heap, threads, nPerPair int, size uint64) Result {
	type batch []pmem.PAddr
	chans := make([]chan batch, threads/2)
	for i := range chans {
		chans[i] = make(chan batch, 16)
	}
	return Run("Prod-con", h, threads, func(w int, th alloc.Thread, _ *rand.Rand) uint64 {
		ops := uint64(0)
		if threads == 1 || (w == threads-1 && threads%2 == 1) {
			// Straggler: self-paired.
			for j := 0; j < nPerPair; j++ {
				p, err := th.Malloc(size)
				if err != nil {
					return ops
				}
				ops++
				if th.Free(p) == nil {
					ops++
				}
			}
			return ops
		}
		pair := w / 2
		if w%2 == 0 {
			// Producer.
			const batchSize = 64
			for sent := 0; sent < nPerPair; {
				b := make(batch, 0, batchSize)
				for j := 0; j < batchSize && sent < nPerPair; j++ {
					p, err := th.Malloc(size)
					if err != nil {
						chans[pair] <- nil
						return ops
					}
					b = append(b, p)
					ops++
					sent++
				}
				chans[pair] <- b
			}
			chans[pair] <- nil
			return ops
		}
		// Consumer.
		for b := range chans[pair] {
			if b == nil {
				break
			}
			for _, p := range b {
				if th.Free(p) == nil {
					ops++
				}
			}
		}
		return ops
	})
}

// Shbench: a MicroQuill-style stress test; each iteration allocates and
// frees objects of 64 B to 1000 B, smaller ones more frequently.
func Shbench(h alloc.Heap, threads, iters int) Result {
	return Run("Shbench", h, threads, func(_ int, th alloc.Thread, rng *rand.Rand) uint64 {
		ops := uint64(0)
		var held []pmem.PAddr
		sizeOf := func() uint64 {
			// Weighted: 70% in 64..128, 25% in 128..512, 5% in 512..1000.
			switch r := rng.Intn(100); {
			case r < 70:
				return uint64(64 + rng.Intn(65))
			case r < 95:
				return uint64(128 + rng.Intn(385))
			default:
				return uint64(512 + rng.Intn(489))
			}
		}
		for it := 0; it < iters; it++ {
			// Allocate a burst, free about half (older first), repeat.
			for j := 0; j < 16; j++ {
				p, err := th.Malloc(sizeOf())
				if err != nil {
					return ops
				}
				held = append(held, p)
				ops++
			}
			for j := 0; j < 8 && len(held) > 0; j++ {
				i := rng.Intn(len(held))
				if th.Free(held[i]) == nil {
					ops++
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		}
		for _, p := range held {
			if th.Free(p) == nil {
				ops++
			}
		}
		return ops
	})
}

// Larson simulates a server: each thread keeps a slot array of live
// objects and repeatedly replaces a random slot (free the old object,
// allocate a new one of random size in [minSize, maxSize]). opsPerThread
// bounds the run (the paper runs 30 s of wall clock).
func Larson(h alloc.Heap, threads, slots, opsPerThread int, minSize, maxSize uint64) Result {
	name := "Larson-small"
	if minSize >= 16<<10 {
		name = "Larson-large"
	}
	return Run(name, h, threads, func(_ int, th alloc.Thread, rng *rand.Rand) uint64 {
		ops := uint64(0)
		held := make([]pmem.PAddr, slots)
		span := int64(maxSize - minSize + 1)
		for i := 0; i < opsPerThread; i++ {
			s := rng.Intn(slots)
			if held[s] != pmem.Null {
				if th.Free(held[s]) == nil {
					ops++
				}
			}
			p, err := th.Malloc(minSize + uint64(rng.Int63n(span)))
			if err != nil {
				return ops
			}
			held[s] = p
			ops++
		}
		for _, p := range held {
			if p != pmem.Null && th.Free(p) == nil {
				ops++
			}
		}
		return ops
	})
}

// DBMStest simulates TPC-DS-style database allocation: per iteration each
// thread allocates n large objects with sizes Poisson-distributed between
// 32 KiB and 512 KiB, then randomly deletes 90% of them.
func DBMStest(h alloc.Heap, threads, iters, nPerIter int) Result {
	return Run("DBMStest", h, threads, func(_ int, th alloc.Thread, rng *rand.Rand) uint64 {
		ops := uint64(0)
		var held []pmem.PAddr
		for it := 0; it < iters; it++ {
			for j := 0; j < nPerIter; j++ {
				p, err := th.Malloc(poissonSize(rng, 32<<10, 512<<10))
				if err != nil {
					return ops
				}
				held = append(held, p)
				ops++
			}
			// Randomly delete 90% of live objects.
			rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
			keep := len(held) / 10
			for _, p := range held[keep:] {
				if th.Free(p) == nil {
					ops++
				}
			}
			held = held[:keep]
		}
		for _, p := range held {
			if th.Free(p) == nil {
				ops++
			}
		}
		return ops
	})
}

// poissonSize draws a size in [min,max] concentrated around the mean
// (approximated by the average of four uniforms, which is what matters
// for the allocator: most requests near the middle, tails at both ends).
func poissonSize(rng *rand.Rand, min, max uint64) uint64 {
	span := int64(max - min)
	s := (rng.Int63n(span) + rng.Int63n(span) + rng.Int63n(span) + rng.Int63n(span)) / 4
	return min + uint64(s)
}
