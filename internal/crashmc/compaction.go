package crashmc

import (
	"nvalloc/internal/alloc"
	"nvalloc/internal/blog"
	"nvalloc/internal/core"
)

// The compaction family covers what Open does to the bookkeeping log. Open
// compacts the log only when it is over its slow-GC threshold, and the
// threshold is a volatile option: the other families recover with the
// default one, which no trace this small ever crosses, so none of their
// recoveries compacts. This target passes the smoke threshold to Open as
// well as to Create, and its trace holds the log over it for long runs of
// operations, so that the double-crash sweep cuts power inside open-time
// compaction — chunk copies, the spare head pointer, the alt flip — and
// inside the runtime one a crashed free left half done.

// CompactionTarget is NVAlloc-LOG with two arenas, opened with the same low
// slow-GC threshold it was created with.
func CompactionTarget() Target {
	return target("NVAlloc-LOG", compactionOptions, compactionOptions)
}

func compactionOptions() core.Options {
	opts := core.DefaultOptions(core.LOG)
	opts.Arenas = 2
	opts.BlogGCThreshold = SmokeGCThreshold
	return opts
}

// CompactionTrace keeps some sixty extents live, four of them published,
// and walks the log over the threshold twice. Frees run the GC policy, so
// a log is only ever over its threshold between the record that crossed it
// and the next free; the trace therefore crosses it with bursts of
// allocations, which append records and run nothing:
//
//   - malloc/free pairs fill the chain's second chunk with records and
//     tombstones, each free finding the log under the threshold;
//   - a burst of forty allocations, two of them published, opens the third
//     chunk after a few and leaves the log over the threshold for the
//     rest: every boundary of those operations recovers by compacting;
//   - freeing the burst compacts at run time inside the first free, and
//     the boundaries of that free are crash images of a half-built chain;
//   - the other thread repeats the burst and the frees, so the second
//     compaction builds its chain from the chunks the first one freed.
func CompactionTrace() Trace {
	tr := Trace{Name: "compaction", Threads: 2}
	const extent = 32 << 10
	slot := 0
	publish := func(th int, size uint64) {
		tr.add(Op{Kind: OpMallocTo, Thread: th, Slot: slot, Size: size})
		slot++
	}
	mallocs := func(th, n int) []int {
		refs := make([]int, n)
		for i := range refs {
			refs[i] = tr.add(Op{Kind: OpMalloc, Thread: th, Size: extent})
			if i%16 == 15 {
				publish(th, extent)
			}
		}
		return refs
	}
	frees := tr.frees

	publish(0, 64)
	publish(1, 192)
	for i := 0; i < 4; i++ {
		publish(i%2, extent)
	}
	mallocs(0, 52)
	for i := 0; i < 56; i++ {
		frees(0, mallocs(0, 1))
	}
	frees(0, mallocs(0, 40))
	frees(1, mallocs(1, 80))
	publish(0, 64)
	publish(1, extent)
	return tr
}

// compactionProbe samples after every op the log's active-chain length
// (low half of the probe) and its slow-GC count (high half).
func compactionProbe(h alloc.Heap) uint64 {
	bl := h.(*core.Heap).Blog()
	_, slow := bl.GCCounts()
	return slow<<32 | uint64(bl.ActiveChunks())
}

// CompactionWindows returns every boundary from the end of an operation
// that left the log over its slow-GC threshold to the end of the next
// one: the crash images Open compacts, the in-flight images of the free
// whose own compaction brings the log back under included.
func (rec *Recording) CompactionWindows() []int {
	var ks []int
	for i := 0; i+1 < len(rec.Ops); i++ {
		if uint64(uint32(rec.Ops[i].Probe))*blog.ChunkSize <= SmokeGCThreshold {
			continue
		}
		for k := rec.Ops[i].FlushEnd; k < rec.Ops[i+1].FlushEnd; k++ {
			ks = append(ks, k)
		}
	}
	return ks
}

// compactionShape counts what the family's coverage argument rests on:
// the boundaries at which the crash image holds a log over its threshold —
// the recoveries that compact — and the log's slow-GC count at the end of
// the trace, one compaction at run time from each thread's frees.
func compactionShape(rec *Recording, _ *Report) []Counter {
	return []Counter{
		{Name: "over_threshold", N: len(rec.CompactionWindows()), Min: 100},
		{Name: "runtime_compactions", N: rec.lastProbe() >> 32, Min: 2},
	}
}
