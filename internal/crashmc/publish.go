package crashmc

import (
	"fmt"
	"sort"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

// The publish family covers Thread.Publish, the reserve → fill → publish
// group NVAlloc-LOG commits with one WAL entry: the entry names the slot,
// the new block and the block it supersedes, and replay completes the last
// entry of a ring only if the slot word holds the new block. It runs on
// the write-back family's target — two arenas, the smallest legal ring, no
// extent caches — so the rings wrap, checkpoints move and bitmap lines are
// written back between and inside publishes, and holds recovery to a
// stricter oracle than the other families': the heap's allocated objects
// are exactly the blocks the trace has allocated and not freed. A publish
// that leaks the record it superseded, or the reservation of one that was
// cut, fails at the boundary that did it.

// PublishTrace drives every shape of publish, with the rings wrapping
// underneath:
//
//   - inserts into empty slots, replaces and deletes on slots that are
//     recycled at once: a replace frees the old block into the thread's
//     cache and the next reservation pops it, so a block superseded by one
//     entry is re-published by one a few slots later in the same ring, well
//     inside the window replay covers;
//   - a slot deleted and re-inserted, and replaced by the other thread;
//   - replaces whose old block the other arena owns: it stays out of the
//     entry and waits, freed but not yet logged, in the remote-free buffer
//     until a flush drains it;
//   - deletes of a block the other arena owns, logged in the owner's ring
//     by the deleting thread;
//   - extents published, replaced by extents and by small blocks, and
//     deleted: their bookkeeping records ride inside the group and the
//     ring's checkpoint moves past each such entry;
//   - a slab drained below the morph threshold by remote frees and morphed
//     by the first allocation of another class, with publishes in the old
//     class before it — one of them of a block an entry a few slots back
//     superseded, so that the ring holds, ahead of the morph, a free and a
//     later allocation of a block the morph carries over as live — in the
//     new class after it, and then replaces and deletes of the old-class
//     survivors, which are freed through the morphed slab's index table.
func PublishTrace() Trace {
	tr := Trace{Name: "publish", Threads: 2}
	add := tr.add
	publish := func(th, slot int, size uint64) { add(Op{Kind: OpPublish, Thread: th, Slot: slot, Size: size}) }
	del := func(th, slot int) { add(Op{Kind: OpFreeFrom, Thread: th, Slot: slot}) }
	const large = 40 << 10

	// Thread 0 binds arena 0, thread 1 arena 1. Slots 0-7 are thread 0's,
	// 8-15 thread 1's.
	for s := 0; s < 4; s++ {
		publish(0, s, 64)
		publish(1, 8+s, 192)
	}

	// Replace churn on four recycled slots per thread: 72 entries a ring,
	// more than a full turn of its 64 slots.
	for i := 0; i < 72; i++ {
		publish(0, i%4, 64)
		publish(1, 8+i%4, 192)
		if i%9 == 8 {
			// Delete and re-insert: the slot word goes through zero.
			del(0, i%4)
			publish(0, i%4, 64)
		}
	}

	// Cross-arena olds: each thread replaces the other's blocks (the old
	// block is buffered as a remote free), then deletes one of the other's
	// (logged in the owner's ring), then drains.
	for s := 0; s < 3; s++ {
		publish(1, s, 192)
		publish(0, 8+s, 64)
	}
	del(1, 3)
	del(0, 11)
	add(Op{Kind: OpFlush, Thread: 0})
	add(Op{Kind: OpFlush, Thread: 1})
	publish(0, 3, 64)
	publish(1, 11, 192)

	// Extents: insert, extent over extent, small over extent, extent over
	// small, delete.
	publish(0, 4, large)
	publish(0, 4, 2*large)
	publish(0, 4, 64)
	publish(0, 4, large)
	del(0, 4)
	publish(1, 12, large)
	publish(0, 12, large) // thread 0 supersedes thread 1's extent
	del(1, 12)

	// Morph: 1 KiB blocks, 62 to a slab. Two publishes, 72 anonymous
	// allocations and a third publish fill arena 1's first slab; thread 0
	// frees the anonymous ones remotely, in drains of 12, which drops the
	// slab under the threshold; arena 1's first 1.5 KiB reservation morphs
	// it. The old-class survivors are then replaced and deleted.
	publish(1, 13, 1024)
	publish(1, 14, 1024)
	var old []int
	for i := 0; i < 72; i++ {
		old = append(old, add(Op{Kind: OpMalloc, Thread: 1, Size: 1024}))
	}
	publish(1, 15, 1024)
	for i, r := range old {
		add(Op{Kind: OpFree, Thread: 0, Ref: r})
		if i%12 == 11 {
			add(Op{Kind: OpFlush, Thread: 0})
		}
		if i == 59 {
			// The slab is down to its two published blocks. Supersede one —
			// it goes into thread 1's cache — and publish it again under
			// another slot: an entry that frees it, then one that allocates
			// it, both still in the ring when the slab morphs around it.
			publish(1, 13, 1024)
			publish(1, 7, 1024)
		}
	}
	publish(1, 5, 1536)
	publish(1, 6, 1536)
	publish(1, 13, 1536) // replaces an old-class survivor
	del(1, 14)           // deletes one
	publish(1, 14, 1024)
	del(0, 15) // and the other thread deletes the last

	// Tail: both rings appended to right up to shutdown.
	for i := 0; i < 6; i++ {
		publish(0, i%4, 64)
		publish(1, 8+i%4, 192)
	}
	return tr
}

// publishShape counts, in a publish recording, the events the family
// exists to put crash boundaries around.
func publishShape(rec *Recording, _ *Report) []Counter {
	// replaces counts publishes over an occupied slot, crossArena those
	// (and deletes) whose old block the other thread had allocated;
	// republished counts blocks published again within 16 ops of having
	// been superseded: a block freed under one entry and allocated under
	// another while both are still in the ring; extents counts publishes
	// and deletes naming a large block.
	var replaces, crossArena, republished, extents int
	type block struct {
		owner int
		size  uint64
	}
	cur := map[int]pmem.PAddr{}
	live := map[pmem.PAddr]block{}
	freedAt := map[pmem.PAddr]int{}
	for i, or := range rec.Ops {
		if or.Err {
			continue
		}
		switch or.Op.Kind {
		case OpMalloc:
			live[or.Addr] = block{or.Op.Thread, or.Op.Size}
		case OpMallocTo, OpPublish, OpFreeFrom:
			if old := cur[or.Op.Slot]; old != pmem.Null {
				b := live[old]
				if or.Op.Kind != OpFreeFrom {
					replaces++
				}
				if b.owner != or.Op.Thread {
					crossArena++
				}
				if !sizeclass.IsSmall(b.size) {
					extents++
				}
				delete(live, old)
				freedAt[old] = i
			}
			cur[or.Op.Slot] = or.Addr
			if or.Addr != pmem.Null {
				if at, ok := freedAt[or.Addr]; ok && i-at <= 16 {
					republished++
				}
				if !sizeclass.IsSmall(or.Op.Size) {
					extents++
				}
				live[or.Addr] = block{or.Op.Thread, or.Op.Size}
			}
		}
	}
	return []Counter{
		// Ring wraps, and one move per publish that names an extent: the
		// rings must still wrap under the publishes.
		{Name: "checkpoint_moves", N: len(rec.checkpointMoves()), Min: 8},
		{Name: "morphs", N: rec.lastProbe(), Min: 1},
		{Name: "replaces", N: replaces, Min: 100},
		{Name: "cross_arena", N: crossArena, Min: 6},
		{Name: "republished", N: republished, Min: 50},
		{Name: "extents", N: extents, Min: 8},
	}
}

// PublishWindows returns the boundaries strictly inside the flush window
// of every publish, delete and malloc_to of the recording: the crash
// images in which recovery has a publish group to complete or to drop.
func (rec *Recording) PublishWindows() []int {
	var ks []int
	for _, or := range rec.Ops {
		switch or.Op.Kind {
		case OpMallocTo, OpPublish, OpFreeFrom:
			for k := or.FlushStart + 1; k < or.FlushEnd; k++ {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// span is the life of one block in a recording, in journal boundaries.
type span struct {
	addr pmem.PAddr
	// The allocating op's flush window, and the freeing op's; freeEnd is
	// the end of the op that made the free durable, which for a buffered
	// remote free is the drain.
	allocStart, allocEnd int
	freed                bool
	freeStart, freeEnd   int
}

// LiveSetOracle returns a Family.Oracle for an NVAlloc-LOG recording that
// holds the recovered heap's objects to the trace: every block whose
// allocation was acknowledged before the boundary and whose free had not
// begun must be allocated, every block whose free was durable (or whose
// allocation had not begun) must be free, and only a block with its
// allocation or its free in flight may be either. Allocated == reachable
// from the application's roots, with the trace's anonymous blocks counted
// as roots the trace remembers.
//
// A free is durable when its op returns, except a cross-arena Free, and
// the old block of a publish whose new block another arena owns: those
// sit in the freeing thread's remote-free buffer until its next OpFlush.
// The trace must flush before sixteen of them accumulate (the automatic
// drain is not modelled); LiveSetOracle panics otherwise.
func LiveSetOracle(rec *Recording) func(h alloc.Heap, k int, torn bool) []string {
	end := rec.Boundaries() - 1
	type block struct {
		span  int // index into spans
		owner int
		small bool
	}
	var spans []span
	live := map[pmem.PAddr]block{}
	cur := map[int]pmem.PAddr{}
	buffered := map[int][]int{} // thread -> spans whose free waits for its flush
	allocate := func(or *OpRecord) {
		live[or.Addr] = block{len(spans), or.Op.Thread, sizeclass.IsSmall(or.Op.Size)}
		spans = append(spans, span{addr: or.Addr, allocStart: or.FlushStart, allocEnd: or.FlushEnd})
	}
	free := func(or *OpRecord, addr pmem.PAddr, deferred bool) {
		b := live[addr]
		delete(live, addr)
		sp := &spans[b.span]
		sp.freed, sp.freeStart, sp.freeEnd = true, or.FlushStart, or.FlushEnd
		if deferred {
			sp.freeEnd = end
			buffered[or.Op.Thread] = append(buffered[or.Op.Thread], b.span)
			if len(buffered[or.Op.Thread]) >= 16 {
				panic("crashmc: LiveSetOracle does not model the automatic remote-free drain")
			}
		}
	}
	for i := range rec.Ops {
		or := &rec.Ops[i]
		if or.Err {
			continue
		}
		switch or.Op.Kind {
		case OpMalloc:
			allocate(or)
		case OpFree:
			b := live[or.Addr]
			free(or, or.Addr, b.small && b.owner != or.Op.Thread)
		case OpMallocTo, OpPublish, OpFreeFrom:
			if old := cur[or.Op.Slot]; old != pmem.Null && or.Op.Kind != OpMallocTo {
				b := live[old]
				// The entry goes to the new block's ring when there is a
				// small new block; an old block of another arena is then
				// freed through the buffer.
				free(or, old, b.small && b.owner != or.Op.Thread &&
					or.Op.Kind == OpPublish && sizeclass.IsSmall(or.Op.Size))
			}
			cur[or.Op.Slot] = or.Addr
			if or.Addr != pmem.Null {
				allocate(or)
			}
		case OpFlush:
			for _, si := range buffered[or.Op.Thread] {
				spans[si].freeEnd = or.FlushEnd
			}
			buffered[or.Op.Thread] = nil
		}
	}

	return func(h alloc.Heap, k int, torn bool) []string {
		ch, ok := h.(*core.Heap)
		if !ok {
			return []string{"live-set oracle: not a core.Heap"}
		}
		begun := func(start int) bool { return start < k || (torn && start == k) }
		must, may := map[pmem.PAddr]bool{}, map[pmem.PAddr]bool{}
		for i := range spans {
			sp := &spans[i]
			switch {
			case !begun(sp.allocStart), sp.freed && sp.freeEnd <= k:
			case sp.allocEnd <= k && !(sp.freed && begun(sp.freeStart)):
				must[sp.addr] = true
			default:
				may[sp.addr] = true
			}
		}
		var probs []string
		ch.Objects(func(o core.Object) bool {
			if !must[o.Addr] && !may[o.Addr] {
				probs = append(probs, fmt.Sprintf("leak: %d-byte object at %#x is allocated; the trace never allocated it, or freed it durably", o.Size, o.Addr))
			}
			delete(must, o.Addr)
			return true
		})
		lost := make([]pmem.PAddr, 0, len(must))
		for a := range must {
			lost = append(lost, a)
		}
		sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
		for _, a := range lost {
			probs = append(probs, fmt.Sprintf("lost: block %#x was allocated and not freed, and reads free", a))
		}
		return probs
	}
}
