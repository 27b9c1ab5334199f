package core

import (
	"slices"

	"nvalloc/internal/alloc"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
	"nvalloc/internal/tcache"
	"nvalloc/internal/walog"
)

// Thread is a per-worker allocation handle: a pmem context (virtual
// clock) plus one tcache per size class, bound to the least-loaded
// arena.
type Thread struct {
	h      *Heap
	arena  *arena
	ctx    *pmem.Ctx
	caches []*tcache.Cache
	// remote holds one cross-arena free buffer per owner arena (LOG
	// variant only): frees of blocks another arena owns accumulate here
	// and drain in one owner-resource section (see drainRemote).
	remote []tcache.RemoteBuf
	closed bool

	// drainRemote scratch, reused across drains so the steady-state
	// remote-free path allocates nothing.
	drainStale []tcache.RemoteFree
	drainApply []blockRef
	drainSlabs []*slab.Slab
}

var (
	_ alloc.Thread  = (*Thread)(nil)
	_ alloc.Flusher = (*Thread)(nil)
)

// remoteBatch bounds each per-owner-arena remote-free buffer: a drain
// amortizes one owner-resource acquisition and one fence over up to this
// many frees.
const remoteBatch = 16

// NewThread registers a worker with the heap, assigning it to the arena
// with the fewest threads (Section 4.2).
func (h *Heap) NewThread() alloc.Thread {
	h.threadsMu.Lock()
	// Least-loaded arena, with a rotating starting point so that ties
	// (e.g. short-lived threads created one after another) still spread
	// across arenas the way core-pinned threads would.
	n := len(h.arenas)
	best := h.arenas[h.nextOwner%n]
	for i := 1; i < n; i++ {
		a := h.arenas[(h.nextOwner+i)%n]
		if a.threads < best.threads {
			best = a
		}
	}
	h.nextOwner++
	best.threads++
	h.threadsMu.Unlock()

	t := &Thread{
		h:      h,
		arena:  best,
		ctx:    h.dev.NewCtx(),
		caches: make([]*tcache.Cache, sizeclass.NumClasses()),
		remote: make([]tcache.RemoteBuf, len(h.arenas)),
	}
	return t
}

// Ctx returns the worker's pmem context.
func (t *Thread) Ctx() *pmem.Ctx { return t.ctx }

func (t *Thread) cache(class int) *tcache.Cache {
	c := t.caches[class]
	if c == nil {
		cap := t.h.opts.TcacheCap
		// Large classes cache fewer blocks (bounded bytes).
		if bs := int(sizeclass.Size(class)); bs > 1024 {
			cap = 8
		}
		c = tcache.New(t.h.tcacheStripes, cap)
		t.caches[class] = c
	}
	return c
}

// opBaseNS is the CPU cost charged per allocator operation outside of
// explicit search charges (fast-path bookkeeping, size-class lookup).
const opBaseNS = 18

// Malloc allocates size bytes.
func (t *Thread) Malloc(size uint64) (pmem.PAddr, error) {
	if size == 0 {
		return pmem.Null, alloc.ErrBadSize
	}
	t.ctx.Charge(pmem.CatOther, opBaseNS)
	if !sizeclass.IsSmall(size) {
		return t.mallocLarge(size)
	}
	return t.mallocSmall(sizeclass.Class(uint32(size)))
}

func (t *Thread) mallocSmall(class int) (pmem.PAddr, error) {
	tc := t.cache(class)
	if tc.Empty() {
		if t.h.useWAL {
			// The refill already holds the arena resource: batch the first
			// block's WAL append + bitmap commit into the same acquisition.
			if addr, ok := t.arena.fillAndCommit(t.ctx, class, tc, tc.Cap()); ok {
				return addr, nil
			}
			return pmem.Null, alloc.ErrOutOfMemory
		}
		if t.arena.fill(t.ctx, class, tc, tc.Cap()) == 0 {
			return pmem.Null, alloc.ErrOutOfMemory
		}
	}
	b, ok := tc.Pop()
	if !ok {
		return pmem.Null, alloc.ErrOutOfMemory
	}
	s := b.Slab.(*slab.Slab)
	// Persist the allocation: a WAL entry (LOG) or the interleaved bitmap
	// bit's line (IC); the GC variant commits in DRAM only.
	a := t.h.arenas[s.Owner]
	if t.h.useWAL {
		a.res.Acquire(t.ctx)
	}
	a.commit(t.ctx, commitAlloc, []blockRef{{s, b.Idx, s.Class}}, true)
	if t.h.useWAL {
		a.res.Release(t.ctx)
	}
	return s.BlockAddr(b.Idx), nil
}

func (t *Thread) mallocLarge(size uint64) (pmem.PAddr, error) {
	h := t.h
	// Moderate sizes go through the thread's shard pool — its own lock,
	// leases refilled from the global allocator — so parallel large
	// allocations stop serializing on large.Res.
	if h.shards != nil && size <= extent.MaxShardAlloc {
		addr, err := h.shards.Pool(t.arena.index).Alloc(t.ctx, size)
		if err == nil {
			return addr, nil
		}
		// Lease refill failed (heap nearly full): spill cached extents back
		// to the global pool and fall through to the global path.
		h.flushExtentCaches(t.ctx, nil)
	}
	h.large.Res.Acquire(t.ctx)
	addr, err := h.large.Alloc(t.ctx, size, 0, false)
	h.large.Res.Release(t.ctx)
	if err != nil {
		return pmem.Null, alloc.ErrOutOfMemory
	}
	return addr, nil
}

// Free releases a block or extent.
func (t *Thread) Free(addr pmem.PAddr) error {
	if addr == pmem.Null {
		return alloc.ErrBadAddress
	}
	t.ctx.Charge(pmem.CatOther, opBaseNS)
	// Resolve the slab by its 64 KiB-aligned base: a lock-free page-map
	// lookup (the address index the paper implements with an R-tree).
	s := t.h.slabs.Lookup(addr &^ (slab.Size - 1))
	if s == nil {
		return t.freeLarge(addr)
	}
	return t.freeSmall(s, addr, true)
}

// freeSmall returns a block to its slab through a single critical
// section. Address-to-index resolution runs lock-free against the
// slab's published geometry snapshot; pointer identity of the snapshot
// is revalidated under s.Mu (or the arena lock on the bypass path)
// before the index is applied, and the whole operation retries on the
// rare concurrent morph. In the WAL variant a cross-arena free is
// buffered instead (buffer=true) and applied later by drainRemote;
// drain retries pass buffer=false to keep the retry path acyclic.
func (t *Thread) freeSmall(s *slab.Slab, addr pmem.PAddr, buffer bool) error {
	owner := t.h.arenas[s.Owner]
	for {
		g := s.Geometry()
		if g.SlabIn {
			// A block_before (old size class) bypasses the tcache entirely.
			// Old-class membership is an index-table property, not a
			// geometric one, so it is decided under the slab lock.
			s.Mu.Lock()
			if s.Geometry() != g {
				s.Mu.Unlock()
				continue
			}
			oldIdx := s.OldBlockIndex(addr)
			s.Mu.Unlock()
			if oldIdx >= 0 {
				return t.freeOld(owner, s, oldIdx)
			}
		}
		idx := g.BlockIndex(s.Base, addr)
		if idx < 0 {
			return alloc.ErrBadAddress
		}
		if buffer && t.h.useWAL && s.Owner != t.arena.index {
			// Cross-arena free: buffer it for a batched drain instead of
			// taking the owner's resource (and paying two fences) per free.
			t.bufferRemoteFree(s, g, addr, idx)
			return nil
		}
		tc := t.cache(g.Class)
		if tc.Full() && !t.evictMagazine(tc, g.Class) {
			// Depot full too: return directly to the slab.
			if !owner.freeBypass(t.ctx, s, idx, false, g) {
				continue
			}
			return nil
		}
		// Persist the free, then cache the block in this thread's tcache.
		if t.h.useWAL {
			owner.res.Acquire(t.ctx)
		}
		s.Mu.Lock()
		if s.Geometry() != g {
			s.Mu.Unlock()
			if t.h.useWAL {
				owner.res.Release(t.ctx)
			}
			continue
		}
		owner.commit(t.ctx, freeToCache, []blockRef{{s, idx, g.Class}}, false)
		s.Mu.Unlock()
		if t.h.useWAL {
			owner.res.Release(t.ctx)
		}
		tc.Push(owner.tcacheStripeGeom(g, idx), tcache.Block{Slab: s, Idx: idx})
		return nil
	}
}

// evictMagazine relieves a full tcache by moving half its capacity into
// the thread's arena depot in one critical section. The transfer is
// purely volatile — no WAL entry, no flush, no fence — because every
// moved block is a reservation whose persistent bit is already clear;
// a crash merely forgets the reservations, which recovery treats as
// free space. Returns false when the depot is full, sending the caller
// down the per-block bypass path instead.
func (t *Thread) evictMagazine(tc *tcache.Cache, class int) bool {
	a := t.arena
	a.res.Acquire(t.ctx)
	if !a.depotRoom(class) {
		a.res.Release(t.ctx)
		return false
	}
	m := a.takeSpareMag()
	if m == nil {
		m = new(tcache.Magazine)
	}
	k := tc.Cap() / 2
	if k < 1 {
		k = 1
	}
	if tc.PopMagazine(m, k) == 0 {
		a.spareMag(m)
		a.res.Release(t.ctx)
		return false
	}
	a.depotPush(class, m)
	a.res.Release(t.ctx)
	return true
}

func (t *Thread) freeOld(owner *arena, s *slab.Slab, oldIdx int) error {
	owner.res.Acquire(t.ctx)
	defer owner.res.Release(t.ctx)
	s.Mu.Lock()
	done, err := s.FreeOldBlock(t.ctx, oldIdx, t.h.persistSmall)
	if err == nil && s.UsageBelowMille(t.h.suMille) {
		owner.noteCandidate(s)
	}
	hasFree := err == nil && s.FreeCount() > 0
	s.Mu.Unlock()
	if err != nil {
		return err
	}
	if done {
		// Fully demoted to a regular slab: it may morph again.
		owner.lruTouch(s)
	}
	if hasFree && !owner.onFreelist(s) {
		owner.freelistPush(s)
	}
	return nil
}

// bufferRemoteFree queues a cross-arena free for its owner arena,
// draining the buffer when it reaches remoteBatch. The free is
// acknowledged immediately; until the drain persists its WAL entry a
// crash leaks the block (the block stays allocated on media, exactly as
// if the free had never been called), while a clean Close — and any
// explicit Flush — always drains. Callers that need the stronger
// "freed-before-crash" guarantee use FreeFrom, whose own WAL record is
// fenced before this buffering ever runs.
func (t *Thread) bufferRemoteFree(s *slab.Slab, g *slab.Geom, addr pmem.PAddr, idx int) {
	ai := s.Owner
	if t.remote[ai].Add(tcache.RemoteFree{Slab: s, Geom: g, Addr: uint64(addr), Idx: idx}) >= remoteBatch {
		t.drainRemote(ai)
	}
}

// drainRemote applies every buffered free for owner arena ai in one
// owner-resource critical section and one commit: the group's WAL
// entries, then its bitmap clears, closed by a single trailing fence. A
// crash inside the group persists a valid prefix of WAL entries whose
// replay re-clears the bits, so partially drained frees are never lost
// once their WAL entry is in. Entries whose slab morphed since buffering
// are retried through the unbuffered path afterwards.
func (t *Thread) drainRemote(ai int) {
	frees := t.remote[ai].Take()
	if len(frees) == 0 {
		return
	}
	owner := t.h.arenas[ai]
	stale, apply := t.drainStale[:0], t.drainApply[:0]
	owner.res.Acquire(t.ctx)
	for _, f := range frees {
		s, g := f.Slab.(*slab.Slab), f.Geom.(*slab.Geom)
		// Geometry only changes under the owner's resource (morphs run in
		// morphInto), which we hold: one snapshot comparison decides each
		// entry for the whole drain.
		if s.Geometry() != g {
			stale = append(stale, f)
			continue
		}
		apply = append(apply, blockRef{s, f.Idx, g.Class})
	}
	t.drainStale, t.drainApply = stale, apply
	if len(apply) == 0 {
		owner.res.Release(t.ctx)
		for _, f := range stale {
			_ = t.freeSmall(f.Slab.(*slab.Slab), pmem.PAddr(f.Addr), false)
		}
		return
	}
	owner.commit(t.ctx, freeToSlab, apply, true)
	slabs := t.drainSlabs[:0]
	for _, b := range apply {
		if !slices.Contains(slabs, b.s) {
			slabs = append(slabs, b.s)
		}
	}
	// Per-slab list maintenance, mirroring freeBypass: refreshed slabs
	// rejoin their freelist, and a fully empty slab beyond the per-class
	// spare is released (outside the resource, like every release).
	var release []*slab.Slab
	for _, s := range slabs {
		s.Mu.Lock()
		empty := s.Allocated == 0 && s.Reserved == 0
		old := s.OldClass >= 0
		s.Mu.Unlock()
		wasOff := !owner.onFreelist(s)
		if wasOff && !empty {
			owner.freelistPush(s)
		}
		owner.lruTouch(s)
		if empty && !old {
			if owner.spareExists(s) {
				if owner.onFreelist(s) {
					owner.freelistRemove(s)
				}
				owner.lruRemove(s)
				owner.retire(t.ctx, s)
				release = append(release, s)
				continue
			}
			if wasOff {
				owner.freelistPush(s)
			}
		}
	}
	owner.res.Release(t.ctx)
	for _, s := range release {
		owner.releaseSlab(t.ctx, s)
	}
	for _, f := range stale {
		_ = t.freeSmall(f.Slab.(*slab.Slab), pmem.PAddr(f.Addr), false)
	}
}

// Flush drains every buffered remote free (alloc.Flusher): after Flush
// returns, every free acknowledged before it is persistent.
func (t *Thread) Flush() {
	for ai := range t.remote {
		t.drainRemote(ai)
	}
}

func (t *Thread) freeLarge(addr pmem.PAddr) error {
	h := t.h
	// A lease-map hit routes the free back to its shard; a miss (including
	// shard sub-allocations from before a crash, rebuilt as ordinary
	// extents) falls through to the global allocator.
	if h.shards != nil {
		if handled, err := h.shards.Free(t.ctx, addr); handled {
			if err != nil {
				return alloc.ErrBadAddress
			}
			return nil
		}
	}
	h.large.Res.Acquire(t.ctx)
	defer h.large.Res.Release(t.ctx)
	if err := h.large.Free(t.ctx, addr); err != nil {
		return alloc.ErrBadAddress
	}
	return nil
}

// MallocTo atomically allocates and publishes the result into the
// persistent pointer slot (the paper's nvalloc_malloc_to): in the LOG
// variant a WAL record makes the pair {slot, block} recoverable; in the
// GC variant reachability from the slot is what keeps the block alive.
func (t *Thread) MallocTo(slot pmem.PAddr, size uint64) (pmem.PAddr, error) {
	addr, err := t.Malloc(size)
	if err != nil {
		return pmem.Null, err
	}
	if t.h.useWAL {
		a := t.arena
		a.res.Acquire(t.ctx)
		a.wal.Append(t.ctx, walog.Entry{
			Op: walog.OpMallocTo, Addr: slot, Aux: uint64(addr), Aux2: uint32(size),
		})
		t.ctx.Fence() // the publish record is durable before the slot write it guards
		a.res.Release(t.ctx)
	}
	t.ctx.PersistU64(pmem.CatOther, slot, uint64(addr))
	t.ctx.Fence()
	return addr, nil
}

// FreeFrom atomically frees the block referenced by the persistent slot
// and clears the slot.
func (t *Thread) FreeFrom(slot pmem.PAddr) error {
	addr := pmem.PAddr(t.h.dev.ReadU64(slot))
	if addr == pmem.Null {
		return alloc.ErrBadAddress
	}
	if t.h.useWAL {
		a := t.arena
		a.res.Acquire(t.ctx)
		a.wal.Append(t.ctx, walog.Entry{Op: walog.OpFreeFrom, Addr: slot, Aux: uint64(addr)})
		t.ctx.Fence() // the retraction record is durable before the slot clear and the free
		a.res.Release(t.ctx)
	}
	t.ctx.PersistU64(pmem.CatOther, slot, 0)
	t.ctx.Fence()
	return t.Free(addr)
}

// Close drains the thread's tcaches back to their slabs and merges its
// statistics into the device.
func (t *Thread) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.Flush()
	for _, tc := range t.caches {
		if tc == nil {
			continue
		}
		for _, b := range tc.Drain() {
			s := b.Slab.(*slab.Slab)
			t.h.arenas[s.Owner].freeBypass(t.ctx, s, b.Idx, true, nil)
		}
	}
	t.h.threadsMu.Lock()
	t.arena.threads--
	last := t.arena.threads == 0
	t.h.threadsMu.Unlock()
	if last {
		// No thread is left to refill from this arena's depot: unreserve
		// the parked magazines so every acknowledged free reads as free.
		t.arena.drainDepots(t.ctx)
	}
	t.ctx.Merge()
}
