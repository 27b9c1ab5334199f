package crashmc

import (
	"errors"
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

// slotOp is one root-slot transition derived from the trace: the slot's
// value before and after the op at Ops[opIdx].
type slotOp struct {
	opIdx     int
	pre, post uint64
	marker    uint64 // post block's durable data marker (publishes only)
	size      uint64 // post block's requested size
	// filled: the marker was flushed before the publish (OpPublish), so it
	// is owed even by a publish found rolled forward mid-flight.
	filled bool
}

// slotHistory derives every root slot's transition sequence from the
// recorded ops (failed ops leave the slot untouched), starting from the
// roots durable at CreatedAt.
func slotHistory(rec *Recording) map[int][]slotOp {
	hist := map[int][]slotOp{}
	cur := rec.Roots
	for i, or := range rec.Ops {
		if or.Err {
			continue
		}
		switch or.Op.Kind {
		case OpMallocTo, OpPublish:
			s := or.Op.Slot
			hist[s] = append(hist[s], slotOp{
				opIdx: i, pre: cur[s], post: uint64(or.Addr),
				marker: or.Marker, size: or.Op.Size,
				filled: or.Op.Kind == OpPublish,
			})
			cur[s] = uint64(or.Addr)
		case OpFreeFrom:
			s := or.Op.Slot
			hist[s] = append(hist[s], slotOp{opIdx: i, pre: cur[s], post: 0})
			cur[s] = 0
		}
	}
	return hist
}

// probeAllocs is how many fresh allocations verifyImage probes against the
// surviving roots of every recovered image.
const probeAllocs = 64

// verifyImage recovers from one crash image of boundary k and runs every
// oracle check, appending violations to part; torn says the image holds a
// partial application of flush k itself. It is what every cut of every
// sweep is held to:
//
//   - boundaries before CreatedAt may be refused, but only with a typed
//     corruption error — never a panic, and never an open that then
//     fails verification; so may a flip cut's image (Report.Detected);
//   - from CreatedAt on, recovery MUST otherwise succeed (every other
//     cut leaves intact media under the fault model);
//   - every root slot holds a legal value: the value durable at k, or —
//     when an operation's flush window straddles k — that operation's
//     pre- or post-value (recovery may roll either way, but nowhere
//     else); before CreatedAt a slot Create publishes may still be empty;
//   - no two roots alias; each published block frees exactly once; a
//     durably published block still carries its data marker;
//   - fresh allocations never collide with surviving roots;
//   - space accounting stays within the recording's bounds.
func (s *sweep) verifyImage(part *Report, scratch *pmem.Device, k int, torn bool, class string) {
	rec, cfg, hist := s.rec, s.cfg, s.hist
	fail := func(format string, args ...any) {
		s.fail(part, k, torn, class, fmt.Sprintf(format, args...))
	}
	h2, err := OpenGuarded(rec.Target, scratch)
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			fail("recovery panicked: %v", pe.Value)
			return
		}
		if errors.Is(err, pmem.ErrCorrupted) {
			if s.cut == FlipCut {
				part.Detected++
				return
			}
			if k < rec.CreatedAt {
				// The heap did not fully exist yet; a typed refusal is
				// the correct answer for a mid-create image.
				return
			}
		}
		fail("crash image not recovered: %v", err)
		return
	}

	used := h2.Used()

	// Root-slot legality and the surviving live set. In a multi-threaded
	// recording several ops can straddle k at once (at most one per
	// thread); raced trace families keep a single scheduled writer per
	// slot, so each slot sees at most one of them, and legality stays the
	// per-slot two-value rule — durable value, or the straddling op's
	// pre/post. Any combination across slots is accepted: that is exactly
	// the set of linearization-consistent recovery states, since recovery
	// may roll each in-flight op forward or back independently.
	type liveBlock struct {
		slot   int
		addr   uint64
		size   uint64
		marker uint64 // assert only when the publish was fully durable
	}
	var live []liveBlock
	seen := map[uint64]int{}
	for s := 0; s < alloc.NumRootSlots; s++ {
		ops := hist[s]
		actual := scratch.ReadU64(h2.RootSlot(s))
		durable := rec.Roots[s]
		durableIdx := -1
		var inflight *slotOp
		for idx := range ops {
			or := &rec.Ops[ops[idx].opIdx]
			if or.FlushEnd <= k {
				durable = ops[idx].post
				durableIdx = idx
			} else {
				// A torn image at boundary k carries a partial application
				// of flush k itself, so the op whose window *starts* at k
				// is already in flight there.
				if or.FlushStart < k || (torn && or.FlushStart == k) {
					inflight = &ops[idx]
				}
				break
			}
		}
		legal := actual == durable || k < rec.CreatedAt && actual == 0
		if inflight != nil && (actual == inflight.pre || actual == inflight.post) {
			legal = true
		}
		if !legal {
			want := fmt.Sprintf("%#x", durable)
			if inflight != nil {
				want = fmt.Sprintf("%#x or %#x/%#x (op %d in flight)",
					durable, inflight.pre, inflight.post, inflight.opIdx)
			}
			fail("slot %d holds %#x, legal: %s", s, actual, want)
			continue
		}
		if actual == 0 {
			continue
		}
		if prev, dup := seen[actual]; dup {
			fail("slots %d and %d alias block %#x", prev, s, actual)
			continue
		}
		seen[actual] = s
		lb := liveBlock{slot: s, addr: actual}
		if inflight != nil && actual == inflight.post {
			// Rolled forward mid-publish: live, but the marker flush may
			// have been the part that was cut off — unless it preceded
			// the publish.
			lb.size = inflight.size
			if inflight.filled {
				lb.marker = inflight.marker
			}
		} else if durableIdx >= 0 && actual == durable {
			lb.size = ops[durableIdx].size
			lb.marker = ops[durableIdx].marker
		}
		live = append(live, lb)
	}

	// A surviving published small block must read allocated in its slab.
	// Free (below) cannot tell: it clears the bit without looking, so a bit
	// that recovery lost — the failure the LOG variant's deferred bitmap
	// write-back must never produce — would otherwise surface only if a
	// probe of the right class happened to collide.
	// Such a block is dropped from the live set: freeing it would panic
	// the slab's double-free guard and mask the report.
	if ba, ok := h2.(interface{ BlockAllocated(pmem.PAddr) bool }); ok {
		kept := live[:0]
		for _, lb := range live {
			if sizeclass.IsSmall(lb.size) && !ba.BlockAllocated(pmem.PAddr(lb.addr)) {
				fail("published block %#x (slot %d) reads free after recovery", lb.addr, lb.slot)
				continue
			}
			kept = append(kept, lb)
		}
		live = kept
	}

	// Durable data markers: a fully persisted publish must still carry
	// the value the application flushed into it.
	for _, lb := range live {
		if lb.marker == 0 {
			continue
		}
		if got := scratch.ReadU64(pmem.PAddr(lb.addr)); got != lb.marker {
			fail("block %#x (slot %d) lost its marker: %#x, want %#x", lb.addr, lb.slot, got, lb.marker)
		}
	}

	// Space accounting: the heap must account for every surviving
	// published byte, and recovery must not have manufactured usage far
	// beyond the recording's high-water mark (GC/IC may leak anonymous
	// blocks — leak-only — so the bound is the peak plus slack, not the
	// boundary's exact live size).
	var lower uint64
	for _, lb := range live {
		lower += lb.size
	}
	if used < lower {
		fail("Used()=%d below the %d bytes of surviving published blocks", used, lower)
	}
	if upper := rec.MaxUsed + rec.MaxUsed/2 + (2 << 20); used > upper {
		fail("Used()=%d exceeds bound %d (recorded peak %d)", used, upper, rec.MaxUsed)
	}
	if lo, ok := h2.(interface{ LeaseOverhead() uint64 }); ok {
		if v, bound := lo.LeaseOverhead(), rec.MaxLease+(4<<20); v > bound {
			fail("LeaseOverhead()=%d exceeds bound %d (recorded peak %d)", v, bound, rec.MaxLease)
		}
	}

	// Per-test invariants see the heap as recovery left it, before the
	// probes below allocate from it and free its roots.
	if cfg.Extra != nil {
		for _, p := range cfg.Extra(h2, k, torn) {
			fail("%s", p)
		}
	}

	// Fresh allocations must not collide with surviving roots, and the
	// checker must observe no overlaps among them.
	ck := alloc.NewChecker(h2)
	th := ck.NewThread()
	for i := 0; i < probeAllocs; i++ {
		p, err := th.Malloc(uint64(64 + i%256))
		if err != nil {
			fail("probe alloc %d failed after recovery: %v", i, err)
			break
		}
		if s, dup := seen[uint64(p)]; dup {
			fail("published block %#x (slot %d) handed out again", p, s)
		}
	}
	for _, e := range ck.Errors() {
		fail("probe checker: %s", e)
	}
	th.Close()

	// Every surviving published block must be allocated: freeing it
	// succeeds exactly once (raw threads — recovery has no record of the
	// checker's probes). The frees alternate between two threads, which a
	// heap with two arenas binds to one each: recovery hands every slab to
	// a new owner, so the sessions that come back after a crash free into
	// slabs of either arena, whoever allocated from them before it.
	if len(live) > 0 {
		raw := [2]alloc.Thread{h2.NewThread(), h2.NewThread()}
		for i, lb := range live {
			if err := raw[i%2].Free(pmem.PAddr(lb.addr)); err != nil {
				fail("published block %#x (slot %d) not allocated after recovery: %v", lb.addr, lb.slot, err)
			}
		}
		raw[0].Close()
		raw[1].Close()
	}
}
