package crashmc

import (
	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// The write-back family covers the window NVAlloc-LOG opens by leaving
// bitmap bits in the cache image under the cover of its WAL: dirty lines
// are flushed, fenced, and only then does the ring's checkpoint word
// move. The other families never wrap a 1 024-entry ring, so they never
// enter that window. This one records on the smallest legal ring, which a
// few dozen operations wrap, and keeps a published block behind every
// shape of commit the write-back has to cover.

// WriteBackTarget is NVAlloc-LOG on the smallest legal ring, with two
// arenas and no arena extent caches, so a slab one arena releases is
// immediately another's to format.
func WriteBackTarget() Target {
	return TargetOpts("NVAlloc-LOG", writeBackOptions)
}

func writeBackOptions() core.Options {
	opts := core.DefaultOptions(core.LOG)
	opts.Arenas = 2
	opts.WALEntries = core.MinWALEntries
	opts.NoExtentCache = true
	opts.BlogGCThreshold = SmokeGCThreshold
	return opts
}

// WriteBackTrace wraps both rings several times with every kind of small
// commit, a root published between phases so each wrap has something to
// lose:
//
//   - malloc / free-to-tcache churn in one class (single-entry commits);
//   - a class whose tcache and depot overflow, so the tail of a free run
//     returns straight to its slabs (bypass frees), emptying one, which is
//     released and later formatted again at the same base;
//   - two full cross-arena drains (16 entries under one fence: the largest
//     group, on a ring whose checkpoint moves every 33 appends);
//   - arena 1 fills slabs of a class arena 0 never used, thread 0 frees
//     them all remotely, the emptied slabs are released, and arena 0
//     formats one of those bases in the same class and publishes from it
//     while arena 1's ring still holds its stale frees (replay runs rings
//     in arena order, so without the release's OpRetire entry arena 1's
//     frees would land on arena 0's live blocks);
//   - a slab drained below the morph threshold by remote frees, then
//     morphed by the first allocation of an unused class, with publishes in
//     the old class just before and in the new class just after.
func WriteBackTrace() Trace {
	tr := Trace{Name: "write-back", Threads: 2}
	add, mallocs, frees := tr.add, tr.mallocs, tr.frees
	slot := 0
	publish := func(th int, size uint64) {
		add(Op{Kind: OpMallocTo, Thread: th, Slot: slot, Size: size})
		slot++
	}

	// Thread 0 binds arena 0, thread 1 arena 1.
	publish(0, 64)
	publish(1, 192)

	// Single-entry commits: 40 malloc/free pairs are 80 entries, two and a
	// half rings, with a publish inside every ring's worth.
	for i := 0; i < 40; i++ {
		frees(0, mallocs(0, 1, 64))
		if i%10 == 9 {
			publish(0, 64)
		}
	}

	// Bypass frees: 4 KiB blocks, 15 to a slab, tcache 8 + depot 16. Of 30
	// frees the last six return to their slabs.
	big := mallocs(0, 30, 4096)
	publish(0, 4096)
	frees(0, big)
	publish(0, 4096)

	// Cross-arena drains: 32 frees of arena 0's blocks from thread 1 are
	// two automatic drains; four more wait for the flush.
	remote := mallocs(0, 36, 256)
	publish(0, 256)
	frees(1, remote)
	add(Op{Kind: OpFlush, Thread: 1})
	publish(1, 192)

	// Release by arena 1, re-format by arena 0: 8 KiB blocks, seven to a
	// slab. Fourteen allocations fill two slabs; freeing them all remotely
	// empties both, and the tcache's reservations in a third keep a spare,
	// so both are released.
	foreign := mallocs(1, 14, 8192)
	frees(0, foreign)
	add(Op{Kind: OpFlush, Thread: 0})
	for i := 0; i < 3; i++ {
		publish(0, 8192) // arena 0's first 8 KiB slab: a released base
	}

	// Morph: 1 KiB blocks, 62 to a slab. 74 allocations leave the first
	// slab full with nothing reserved; remote frees of all but the two
	// published ones drop it under the threshold; the first 1.5 KiB
	// allocation of arena 1 then morphs it.
	publish(1, 1024)
	old := mallocs(1, 72, 1024)
	publish(1, 1024)
	frees(0, old)
	add(Op{Kind: OpFlush, Thread: 0})
	publish(1, 1536)
	mallocs(1, 6, 1536)
	publish(1, 1536)

	// Tail: both rings appended to right up to shutdown.
	frees(0, mallocs(0, 8, 64))
	publish(0, 64)
	publish(1, 192)
	return tr
}

// checkpointMoves returns the boundary of every checkpoint-word flush the
// trace (not Create, not shutdown) issued: boundary m is the image in
// which the move's write-back is on media and the word is not.
func (rec *Recording) checkpointMoves() []int {
	opts := writeBackOptions()
	ring := pmem.PAddr(walog.RegionSize(opts.WALEntries, opts.Stripes))
	var wal pmem.Range
	for _, r := range core.Regions(rec.Dev) {
		if r.Name == "wal" {
			wal = r.Range
		}
	}
	var moves []int
	for k := rec.CreatedAt; k < rec.CloseStart; k++ {
		a := pmem.PAddr(rec.Journal[k].Line * pmem.LineSize)
		if a >= wal.Start && a < wal.End && (a-wal.Start)%ring == 0 {
			moves = append(moves, k)
		}
	}
	return moves
}

// WriteBackStarts returns, for every checkpoint move of the trace, the
// boundary just before the first line of its write-back: a ring full of
// entries whose bits are not on media yet, which is where a recovery —
// and a second crash inside it — has the most to replay and write back.
func (rec *Recording) WriteBackStarts() []int {
	cl := newClassifier(rec)
	var ks []int
	for _, m := range rec.checkpointMoves() {
		k := m
		for k > rec.CreatedAt && cl.classify(&rec.Journal[k-1]) == "bitmap-stripe" {
			k--
		}
		ks = append(ks, k)
	}
	return ks
}

// writeBackShape counts, in a write-back recording, the events the family
// exists to put crash boundaries around. A trace or geometry change that
// loses one of them must fail loudly, not thin the coverage silently.
func writeBackShape(rec *Recording, _ *Report) []Counter {
	// foreign counts slab bases one thread's allocations came from and,
	// later, the other thread's in the same class did: a release by one
	// arena and a re-format by the other.
	foreign := 0
	type key struct {
		base pmem.PAddr
		size uint64
	}
	firstUser := map[key]int{}
	counted := map[key]bool{}
	for _, or := range rec.Ops {
		if or.Err || or.Addr == 0 || (or.Op.Kind != OpMalloc && or.Op.Kind != OpMallocTo) {
			continue
		}
		k := key{or.Addr &^ (slab.Size - 1), or.Op.Size}
		if th, seen := firstUser[k]; !seen {
			firstUser[k] = or.Op.Thread
		} else if th != or.Op.Thread && !counted[k] {
			counted[k] = true
			foreign++
		}
	}
	return []Counter{
		// Ring wraps, each preceded by a write-back: the rings must still
		// wrap several times.
		{Name: "checkpoint_moves", N: len(rec.checkpointMoves()), Min: 8},
		{Name: "morphs", N: rec.lastProbe(), Min: 1},
		{Name: "foreign_reformats", N: foreign, Min: 1},
	}
}

// morphCount is the Probe of the families whose shape counts slab morphs.
func morphCount(h alloc.Heap) uint64 {
	morphs, _ := h.(*core.Heap).MorphStats()
	return morphs
}

// lastProbe is the Probe value after the trace's last op.
func (rec *Recording) lastProbe() int {
	if n := len(rec.Ops); n > 0 {
		return int(rec.Ops[n-1].Probe)
	}
	return 0
}
