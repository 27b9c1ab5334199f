package crashmc

// The raced trace families: small two-thread traces aimed at the
// allocator's genuinely concurrent persistence machinery, where the
// ordering decisions live outside any lock — bookkeeping-log appends
// racing the log's inline GC, batched remote-free drains
// racing the owner arena's allocations, and extent-cache refills racing
// extent frees. Each family keeps a single scheduled writer per root
// slot, so the per-slot oracle stays the two-value legality rule while
// the cross-thread flush interleavings roam free. Each also mixes in
// cross-thread traffic with *disjoint* footprints (other arenas' slabs,
// buffered frees that flush nothing) — those pairs are what DPOR proves
// independent and prunes.

// ConcShardGC is the shard-append-gc family, log appends × GC: thread 0
// streams large publishes/unpublishes through the bookkeeping log while
// thread 1's frees of pre-allocated extents drop tombstones into the same
// log, triggering its inline incremental GC under the smoke targets' low
// threshold. Conflicts: the log's resource and blog-entry lines.
func ConcShardGC(seed uint64) Trace {
	rng := splitmix64(seed)
	big := func() uint64 { return (64 + rng.next()%64) << 10 }
	// One fixed small size class per family: the slabs are created during
	// the prologue (below), so scheduled small churn is pure arena-private
	// tcache/bitmap traffic — the independent pairs DPOR should prune.
	small := func() Op { return Op{Kind: OpMalloc, Size: 96} }
	tr := Trace{Name: "shard-append-gc"}
	// Prologue: published extents for the raced FreeFroms, plus anonymous
	// extents thread 1 will free (tombstone + GC traffic).
	for s := 0; s < 4; s++ {
		tr.add(Op{Kind: OpMallocTo, Slot: s, Size: big()})
	}
	var anon []int
	for i := 0; i < 5; i++ {
		anon = append(anon, tr.add(Op{Kind: OpMalloc, Size: big()}))
	}
	// Warm both threads' small class so slab creation (a bookkeeping
	// record, hence a conflict) happens before the scheduled phase.
	tr.add(Op{Kind: OpMalloc, Size: 96})
	tr.add(Op{Kind: OpMalloc, Thread: 1, Size: 96})
	tr.Raced = [][]Op{
		{ // t0: append stream — publishes and unpublishes of fresh
			// extents — padded with arena-private slab churn.
			{Kind: OpMallocTo, Slot: 10, Size: big()},
			small(), small(),
			{Kind: OpMallocTo, Slot: 11, Size: big()},
			small(), small(),
			{Kind: OpFreeFrom, Slot: 10},
			small(), small(),
			{Kind: OpMallocTo, Slot: 12, Size: big()},
			small(),
			{Kind: OpFreeFrom, Slot: 11},
			{Kind: OpMallocTo, Slot: 13, Size: big()},
		},
		{ // t1: tombstones driving the log's inline GC, same padding.
			{Kind: OpFree, Thread: -1, Ref: anon[0]},
			small(), small(),
			{Kind: OpFree, Thread: -1, Ref: anon[1]},
			small(), small(),
			{Kind: OpFreeFrom, Slot: 0},
			small(), small(),
			{Kind: OpFree, Thread: -1, Ref: anon[2]},
			small(),
			{Kind: OpFree, Thread: -1, Ref: anon[3]},
			{Kind: OpFreeFrom, Slot: 1},
		},
	}
	return tr
}

// ConcRemoteFree is the remote-free×owner-alloc family: thread 1 frees
// blocks owned by thread 0's arena — buffered locally, flushing nothing
// — then drains the batch with an explicit flush while thread 0 keeps
// allocating from the same size class. Conflicts: the drain's WAL/bin
// traffic against the owner's allocation path. The buffered frees
// themselves are footprint-free, so DPOR prunes every pair they are in.
func ConcRemoteFree(seed uint64) Trace {
	rng := splitmix64(seed)
	tr := Trace{Name: "remote-free-drain"}
	owned := tr.mallocs(0, 8, 256)
	// A shard-pool extent (leased to the prologue thread's arena): thread
	// 1's drain hands it back to the owner's pool while thread 0 is
	// carving from the same pool — the remote-free×owner-alloc race at
	// the extent layer, and the conflict that persists even where small
	// frees never touch media (the GC variant's volatile bitmaps).
	ext := tr.add(Op{Kind: OpMalloc, Size: 48 << 10})
	tr.add(Op{Kind: OpMallocTo, Slot: 0, Size: 256 + rng.next()%256})
	tr.add(Op{Kind: OpMallocTo, Slot: 1, Size: 256 + rng.next()%256})
	t1 := []Op{}
	for _, r := range owned {
		t1 = append(t1, Op{Kind: OpFree, Thread: -1, Ref: r})
	}
	t1 = append(t1,
		Op{Kind: OpFlush},
		Op{Kind: OpFree, Thread: -1, Ref: ext},
		Op{Kind: OpMalloc, Size: 512},
	)
	tr.Raced = [][]Op{
		{ // t0: owner keeps allocating the drained size class, with a
			// late shard-pool carve racing thread 1's extent return.
			{Kind: OpMalloc, Size: 256},
			{Kind: OpMalloc, Size: 256},
			{Kind: OpMallocTo, Slot: 10, Size: 256},
			{Kind: OpMalloc, Size: 256},
			{Kind: OpMalloc, Size: 256},
			{Kind: OpFreeFrom, Slot: 0},
			{Kind: OpMallocTo, Slot: 11, Size: 256 + rng.next()%128},
			{Kind: OpMalloc, Size: 256},
			{Kind: OpMalloc, Size: 48 << 10},
		},
		t1,
	}
	return tr
}

// ConcExtentRefill is the extent-refill×free family: thread 0's large
// publishes force its arena's extent cache to refill from the global
// extent state while thread 1 frees previously published extents back
// into it. Conflicts: global extent metadata and bookkeeping entries.
// The small mallocs between them use size classes each thread warmed in
// the prologue, so they create no slab — a slab's record would be one
// more append to the bookkeeping log — and stay arena-private: the pairs
// DPOR prunes.
func ConcExtentRefill(seed uint64) Trace {
	rng := splitmix64(seed)
	big := func() uint64 { return (96 + rng.next()%64) << 10 }
	tr := Trace{Name: "extent-refill-free"}
	for s := 0; s < 6; s++ {
		tr.add(Op{Kind: OpMallocTo, Slot: s, Size: big()})
	}
	tr.Raced = [][]Op{
		{ // t0: refill pressure — fresh large extents.
			{Kind: OpMallocTo, Slot: 10, Size: big()},
			{Kind: OpMalloc, Size: 64 + rng.next()%256},
			{Kind: OpMallocTo, Slot: 11, Size: big()},
			{Kind: OpMallocTo, Slot: 12, Size: big()},
			{Kind: OpMalloc, Size: 64 + rng.next()%256},
			{Kind: OpMallocTo, Slot: 13, Size: big()},
		},
		{ // t1: extent returns.
			{Kind: OpFreeFrom, Slot: 0},
			{Kind: OpMalloc, Size: 64 + rng.next()%256},
			{Kind: OpFreeFrom, Slot: 1},
			{Kind: OpFreeFrom, Slot: 2},
			{Kind: OpMalloc, Size: 64 + rng.next()%256},
			{Kind: OpFreeFrom, Slot: 3},
			{Kind: OpFreeFrom, Slot: 4},
		},
	}
	for th, ops := range tr.Raced {
		for _, op := range ops {
			if op.Kind == OpMalloc {
				tr.add(Op{Kind: OpMalloc, Thread: th, Size: op.Size})
			}
		}
	}
	return tr
}

// racedTraces returns the three raced traces of the family table, seeded
// deterministically.
func racedTraces(seed uint64) []Trace {
	return []Trace{
		ConcShardGC(seed),
		ConcRemoteFree(seed ^ 0x9E3779B97F4A7C15),
		ConcExtentRefill(seed ^ 0xA24BAED4963EE407),
	}
}
