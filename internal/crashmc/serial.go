package crashmc

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// The serial families after kv-session in the table: the sweep trace on
// each NVAlloc variant, four handles publishing through the one
// bookkeeping log, shard-pool leases crossing boundaries, a cross-arena
// free drain that must apply as a prefix, and a close whose rings are
// checkpointed one arena at a time.
func serialFamilies() []Family {
	var fs []Family
	for _, v := range []core.Variant{core.LOG, core.GC, core.IC} {
		fs = append(fs, Family{Name: "sweep", Target: VariantTarget(v), Trace: SweepTrace(400),
			Oracle: distinctObjects, Windows: twoThirds})
	}
	return append(fs,
		Family{Name: "handles", Target: handlesTarget(), Trace: handlesTrace(15)},
		Family{Name: "shards", Target: VariantTarget(core.LOG), Trace: shardsTrace(60)},
		Family{Name: "remote-free-prefix", Target: VariantTarget(core.LOG), Trace: remoteFreeTrace(),
			Span: drainSpan, Oracle: freePrefix},
		Family{Name: "close-witness", Target: VariantTarget(core.LOG), Trace: closeWitnessTrace()},
		Family{Name: "close-witness", Target: VariantTarget(core.GC), Trace: closeWitnessTrace()},
	)
}

// distinctObjects walks the recovered heap's collection (Heap.Objects, what
// IC collects from after a crash) and reports an address it lists twice.
func distinctObjects(*Recording) func(h alloc.Heap, boundary int, torn bool) []string {
	return func(h alloc.Heap, boundary int, torn bool) []string {
		ch, ok := h.(*core.Heap)
		if !ok {
			return []string{"not a core.Heap"}
		}
		var probs []string
		seen := map[pmem.PAddr]bool{}
		ch.Objects(func(o core.Object) bool {
			if seen[o.Addr] {
				probs = append(probs, fmt.Sprintf("duplicate object %#x in collection", o.Addr))
				return false
			}
			seen[o.Addr] = true
			return true
		})
		return probs
	}
}

// twoThirds is the sweep family's window: the boundary two thirds into the
// journal, whose recovery has the trace's mix in flight.
func twoThirds(rec *Recording) []int { return []int{2 * len(rec.Journal) / 3} }

// handlesTarget is NVAlloc-LOG on four arenas, so each handle of
// handlesTrace appends to the bookkeeping log from its own arena.
func handlesTarget() Target {
	return TargetOpts("NVAlloc-LOG", func() core.Options {
		opts := core.DefaultOptions(core.LOG)
		opts.Arenas = 4
		opts.BlogGCThreshold = SmokeGCThreshold
		return opts
	})
}

// handlesTrace drives interleaved large publications and retractions
// from four thread handles, so the bookkeeping log's records and
// tombstones come from four arenas in turn.
func handlesTrace(rounds int) Trace {
	tr := Trace{Name: "handles", Threads: 4}
	slots := alloc.NumRootSlots / 4
	pub := make([]int, 4)
	for r := 0; r < rounds; r++ {
		for w := 0; w < 4; w++ {
			base := w * slots
			if r%3 == 2 {
				tr.Ops = append(tr.Ops, Op{Kind: OpFreeFrom, Thread: w,
					Slot: base + (pub[w]+1)%slots})
				continue
			}
			tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Thread: w,
				Slot: base + pub[w]%slots, Size: uint64(32<<10 + r%8*(16<<10))})
			pub[w]++
		}
	}
	return tr
}

// shardsTrace is a shard-heavy mix: 40–480 KiB publications cycling a
// small slot window (with overwrites), so shard-pool leases and their
// dissolution cross boundaries. Recovery must leave acknowledged
// publications as ordinary extents and the leases dissolved.
func shardsTrace(n int) Trace {
	tr := Trace{Name: "shards", Threads: 1}
	slot := 0
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0, 1:
			tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Slot: slot % 16,
				Size: uint64(40<<10 + (i%12)*(36<<10))})
			slot++
		case 2:
			tr.Ops = append(tr.Ops, Op{Kind: OpFreeFrom, Slot: (slot + 5) % 16})
		}
	}
	return tr
}

// remoteFrees is how many blocks thread 0 allocates and thread 1 frees.
const remoteFrees = 48

// remoteFreeTrace has thread 1 free thread 0's blocks cross-arena —
// buffered, then drained in batches — and flush what it still buffers.
func remoteFreeTrace() Trace {
	tr := Trace{Name: "remotefree", Threads: 2}
	for i := 0; i < remoteFrees; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMalloc, Size: 256})
	}
	for i := 0; i < remoteFrees; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpFree, Thread: 1, Ref: i})
	}
	tr.Ops = append(tr.Ops, Op{Kind: OpFlush, Thread: 1})
	return tr
}

// drainSpan is the remote frees' window: from the first free to the end of
// the flush.
func drainSpan(rec *Recording) (from, to int) {
	return rec.Ops[remoteFrees].FlushStart, rec.Ops[2*remoteFrees].FlushEnd
}

// freePrefix holds the recovered heap to the drain's order: the frees
// applied are a prefix of the acknowledged free order. The check runs
// before the shared oracle's probe allocations can reuse an applied
// free's block.
func freePrefix(rec *Recording) func(h alloc.Heap, boundary int, torn bool) []string {
	addrs := make([]pmem.PAddr, 0, remoteFrees)
	for _, or := range rec.Ops[:remoteFrees] {
		addrs = append(addrs, or.Addr)
	}
	return func(h alloc.Heap, boundary int, torn bool) []string {
		ch := h.(*core.Heap)
		lost := -1
		for i, a := range addrs {
			if ch.BlockAllocated(a) {
				// Block still allocated: the acknowledged free was lost.
				if lost < 0 {
					lost = i
				}
			} else if lost >= 0 {
				return []string{fmt.Sprintf(
					"free %d applied but earlier free %d lost (not a prefix)", i, lost)}
			}
		}
		return nil
	}
}

// closeWitnessTrace is the shape of a cross-arena close-window bug: Close
// checkpoints the WAL rings one arena at a time, and replaying the
// survivors of a partial truncation used to free a block whose
// republication witness (the OpMallocTo of the same recycled address, in
// the other arena's ring) had already been checkpointed away, dangling a
// live root. Arena 1 retracts an extent and arena 0 reuses its address for
// a new publish, so the close-phase boundaries fall between the two rings'
// checkpoints. Close seals stateClosing before the first checkpoint, so
// recovery retires the surviving entries unapplied.
func closeWitnessTrace() Trace {
	tr := Trace{Name: "close-witness-reuse", Threads: 2}
	for s := 0; s < 6; s++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Slot: s, Size: 128 << 10})
	}
	tr.Ops = append(tr.Ops,
		// Arena 1 retracts slot 0; arena 0's next large publish recycles
		// the freed extent's address into slot 11.
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 0},
		Op{Kind: OpMalloc, Thread: 0, Size: 170},
		Op{Kind: OpMallocTo, Thread: 0, Slot: 11, Size: 104 << 10},
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 1},
		Op{Kind: OpMallocTo, Thread: 0, Slot: 12, Size: 149 << 10},
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 2},
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 3},
	)
	return tr
}
