package core

import (
	"errors"
	"fmt"
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
	// remote holds one cross-arena free buffer per owner arena: frees of
	// blocks another arena owns accumulate here and drain in one
	// owner-resource section (see drainRemote).
	remote []tcache.RemoteBuf
	closed bool

	// drainRemote scratch, reused across drains so the steady-state
	// remote-free path allocates nothing.
	drainStale []tcache.RemoteFree
	drainApply []blockRef
	drainSlabs []*slab.Slab
	// tombOne is Publish's one-address tombstone group (see
	// extent.Allocator.Tombstone).
	tombOne [1]pmem.PAddr
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
	best.adopt(h.strays)
	h.strays = nil
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
		cap := tcacheCap
		// Large classes cache fewer blocks (bounded bytes).
		if bs := int(sizeclass.Size(class)); bs > 1024 {
			cap = 8
		}
		c = tcache.New(t.h.lay.Tcache, cap)
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
		return oom(t.h.large.Alloc(t.ctx, t.arena.index, size))
	}
	return t.mallocSmall(sizeclass.Class(uint32(size)))
}

func (t *Thread) mallocSmall(class int) (pmem.PAddr, error) {
	tc := t.cache(class)
	if tc.Empty() {
		// The refill already holds the arena resource: the first block's
		// commit goes into the same acquisition.
		if addr, ok := t.arena.fillAndCommit(t.ctx, class, tc, tc.Cap()); ok {
			return addr, nil
		}
		return pmem.Null, alloc.ErrOutOfMemory
	}
	b, _ := tc.Pop()
	s := b.Slab.(*slab.Slab)
	// Persist the allocation: a WAL entry (LOG) or the interleaved bitmap
	// bit's line (IC); the GC variant commits in DRAM only. The tcache holds
	// blocks of t's arena only (fillAndCommit).
	t.arena.res.Acquire(t.ctx)
	t.arena.commit(t.ctx, commitAlloc, []blockRef{{s, b.Idx, s.Class}}, false)
	t.arena.res.Release(t.ctx)
	return s.BlockAddr(b.Idx), nil
}

// oom reports a failed extent carve or record as the heap being full.
// When the extent layer had the space and the bookkeeper failed, the
// bookkeeper's error is wrapped alongside.
func oom(addr pmem.PAddr, err error) (pmem.PAddr, error) {
	switch {
	case err == nil:
		return addr, nil
	case errors.Is(err, extent.ErrNoSpace):
		return pmem.Null, alloc.ErrOutOfMemory
	}
	return pmem.Null, fmt.Errorf("%w: bookkeeping: %w", alloc.ErrOutOfMemory, err)
}

// badAddr reports a failed extent free or release as a bad address when
// the address is not a live extent. Any other failure is the
// bookkeeper's, and is returned wrapped.
func badAddr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, extent.ErrUnknown):
		return alloc.ErrBadAddress
	}
	return fmt.Errorf("core: bookkeeping: %w", err)
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
		return badAddr(t.h.large.Free(t.ctx, t.arena.index, addr, false))
	}
	return t.freeSmall(s, addr, true)
}

// freeSmall returns a block to its slab through a single critical
// section. Address-to-index resolution runs lock-free against the
// slab's published geometry snapshot; pointer identity of the snapshot
// is revalidated under the slab lock (the owner's resource) before the
// index is applied, and the whole operation retries on the rare
// concurrent morph. A cross-arena free is buffered instead (buffer=true)
// and applied later by drainRemote; drain retries pass buffer=false to
// keep the retry path acyclic, and return the block straight to its slab.
func (t *Thread) freeSmall(s *slab.Slab, addr pmem.PAddr, buffer bool) error {
	h := t.h
	owner := h.arenas[s.Owner]
	for {
		g := s.Geometry()
		if g.SlabIn {
			// A block_before (old size class) bypasses the tcache entirely.
			// Old-class membership is an index-table property, not a
			// geometric one, so it is decided under the slab lock.
			h.lockSlabState(s)
			if s.Geometry() != g {
				h.unlockSlabState(s)
				continue
			}
			oldIdx := s.OldBlockIndex(addr)
			h.unlockSlabState(s)
			if oldIdx >= 0 {
				return t.freeOld(owner, s, oldIdx)
			}
		}
		idx := g.BlockIndex(s.Base, addr)
		if idx < 0 {
			return alloc.ErrBadAddress
		}
		bypass := false
		if s.Owner != t.arena.index {
			if buffer {
				// Cross-arena free: buffer it for a batched drain instead of
				// taking the owner's resource (and paying two fences) per free.
				t.bufferRemoteFree(s, g, addr, idx)
				return nil
			}
			// A thread caches blocks of its own arena only (see
			// fillAndCommit).
			bypass = true
		}
		tc := t.cache(g.Class)
		if bypass || (tc.Full() && !t.evictMagazine(tc, g.Class)) {
			// Not this thread's to cache, or its tcache and the depot are
			// full: return the block directly to its slab.
			if !owner.freeBypass(t.ctx, s, idx, fromUser, g) {
				continue
			}
			return nil
		}
		// Persist the free, then cache the block in this thread's tcache.
		owner.res.Acquire(t.ctx)
		same := s.Geometry() == g
		if same {
			owner.commit(t.ctx, freeToCache, []blockRef{{s, idx, g.Class}}, false)
		}
		owner.res.Release(t.ctx)
		if !same {
			continue
		}
		tc.Push(owner.tcacheStripe(g, idx), tcache.Block{Slab: s, Idx: idx})
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
	t.arena.res.Acquire(t.ctx)
	defer t.arena.res.Release(t.ctx)
	return t.evictMagazineLocked(tc, class)
}

// evictMagazineLocked is evictMagazine's body; caller holds the thread's
// arena resource.
func (t *Thread) evictMagazineLocked(tc *tcache.Cache, class int) bool {
	a := t.arena
	if !a.depotRoom(class) {
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
		return false
	}
	a.depotPush(class, m)
	return true
}

func (t *Thread) freeOld(owner *arena, s *slab.Slab, oldIdx int) error {
	owner.res.Acquire(t.ctx)
	defer owner.res.Release(t.ctx)
	return t.freeOldLocked(owner, s, oldIdx)
}

// freeOldLocked is freeOld's body; caller holds the owner's resource.
func (t *Thread) freeOldLocked(owner *arena, s *slab.Slab, oldIdx int) error {
	s.Build(t.ctx)
	done, err := s.FreeOldBlock(t.ctx, oldIdx, t.h.persistSmall)
	if err == nil && s.UsageBelowMille(t.h.suMille) {
		owner.noteCandidate(s)
	}
	hasFree := err == nil && s.FreeCount() > 0
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
// acknowledged immediately; until the drain commits it a crash leaks the
// block (the block stays allocated on media, exactly as if the free had
// never been called), while a clean Close — and any explicit Flush —
// always drains. Callers that need the stronger
// "freed-before-crash" guarantee use FreeFrom, which logs the free in the
// owner's ring itself and never comes here. A publish whose old block
// another arena owns does: that block is freed when the buffer drains.
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
	// The owner's resource is the slab lock of every slab in the group.
	owner.commit(t.ctx, freeToSlab, apply, false)
	slabs := t.drainSlabs[:0]
	for _, b := range apply {
		if !slices.Contains(slabs, b.s) {
			slabs = append(slabs, b.s)
		}
	}
	// A fully empty slab beyond the per-class spare is released outside
	// the resource, like every release.
	var release []*slab.Slab
	for _, s := range slabs {
		if owner.regained(t.ctx, s) {
			release = append(release, s)
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

// Reserve takes size bytes out of the thread's cache (or an extent out of
// the large allocator) with no persistent effect: the block is this
// thread's to fill, and a crash before Publish returns it to the heap
// without any recovery work. A reservation ends in Publish or Unreserve.
func (t *Thread) Reserve(size uint64) (pmem.PAddr, error) {
	if size == 0 {
		return pmem.Null, alloc.ErrBadSize
	}
	t.ctx.Charge(pmem.CatOther, opBaseNS)
	if !sizeclass.IsSmall(size) {
		return oom(t.h.large.Carve(t.ctx, t.arena.index, size, false))
	}
	class := sizeclass.Class(uint32(size))
	tc := t.cache(class)
	if tc.Empty() && t.arena.fill(t.ctx, class, tc, tc.Cap()) == 0 {
		return pmem.Null, alloc.ErrOutOfMemory
	}
	b, ok := tc.Pop()
	if !ok {
		return pmem.Null, alloc.ErrOutOfMemory
	}
	return b.Slab.(*slab.Slab).BlockAddr(b.Idx), nil
}

// reserved resolves a small reservation to its block. A reservation pins
// its slab's geometry (CanMorphTo requires Reserved == 0), so the index is
// stable from Reserve to Publish or Unreserve. A slab Open left unbuilt
// holds no reservation. Caller holds s's slab lock: lockSlabState, or the
// owner arena's resource.
func reserved(s *slab.Slab, addr pmem.PAddr) (int, bool) {
	idx := s.BlockIndex(addr)
	return idx, idx >= 0 && s.Built() && s.BlockReserved(idx)
}

// Unreserve returns a reservation that was never published: back into the
// thread's cache, or to its slab when the cache is full or another arena
// owns the slab. It writes nothing persistent.
func (t *Thread) Unreserve(addr pmem.PAddr) error {
	if addr == pmem.Null {
		return alloc.ErrBadAddress
	}
	t.ctx.Charge(pmem.CatOther, opBaseNS)
	h := t.h
	s := h.slabs.Lookup(addr &^ (slab.Size - 1))
	if s == nil {
		return badAddr(h.large.Release(t.ctx, t.arena.index, addr, false))
	}
	h.lockSlabState(s)
	idx, ok := reserved(s, addr)
	h.unlockSlabState(s)
	if !ok {
		return alloc.ErrBadAddress
	}
	owner := h.arenas[s.Owner]
	if tc := t.cache(s.Class); !tc.Full() && owner == t.arena {
		tc.Push(owner.tcacheStripe(s.Geometry(), idx), tcache.Block{Slab: s, Idx: idx})
		return nil
	}
	owner.freeBypass(t.ctx, s, idx, fromCache, nil)
	return nil
}

// tagLarge marks a block of a publish entry as an extent; a small block
// is tagged with its size class plus one, an absent one with zero.
const tagLarge = 0xFF

// Publish makes the persistent word at slot reference new in place of old,
// and new allocated and old free, as one crash-atomic step: after a crash
// either all three hold or none does. new is a reservation of this thread
// (or Null, to detach old), old the allocated block slot referenced until
// now (or Null). When Publish returns nil the step is durable, and so is
// everything the caller flushed before the call: the first fence inside
// covers it.
//
// LOG: one OpPublish entry names slot, new and old; it is fenced, then
// slot is persisted and fenced, then both blocks' bits are written in the
// cache image under the entry like any commit's (arena.commit). The entry
// goes to the ring of the arena that owns new's slab — old's, when new is
// Null or an extent — because replay orders a block's bit changes by ring
// sequence alone; an old block another arena owns is therefore left out
// of the entry and takes the buffered remote-free route afterwards. The
// arena resource is held from the append to the last bit, so every entry
// a ring holds but its last belongs to a publish that ran to completion;
// for the last, replay lets the slot word decide (replayPublish).
//
// An extent's allocation state stays in the bookkeeping log, which has no
// order against ring entries, so its record is written inside the group —
// new's before the slot persist, old's tombstone after it — and the ring's
// checkpoint is moved past the entry before old's space is released for
// reuse: replay only ever sees such an entry with its publish in flight.
//
// GC and IC have no log to bind the three writes; they commit new, persist
// slot and free old in that order, as their consistency models allow.
func (t *Thread) Publish(slot, new, old pmem.PAddr) error {
	if new == pmem.Null && old == pmem.Null {
		return alloc.ErrBadAddress
	}
	t.ctx.Charge(pmem.CatOther, opBaseNS)
	h, c := t.h, t.ctx
	var ns, os *slab.Slab
	if new != pmem.Null {
		ns = h.slabs.Lookup(new &^ (slab.Size - 1))
	}
	if old != pmem.Null {
		os = h.slabs.Lookup(old &^ (slab.Size - 1))
	}
	newLarge, oldLarge := new != pmem.Null && ns == nil, old != pmem.Null && os == nil

	if !h.useWAL {
		// Commit new, persist the slot, free old: three steps, as GC and
		// IC allow.
		if ns != nil {
			a := h.arenas[ns.Owner]
			a.res.Acquire(c)
			idx, ok := reserved(ns, new)
			if ok {
				a.commit(c, commitAlloc, []blockRef{{ns, idx, ns.Class}}, false)
			}
			a.res.Release(c)
			if !ok {
				return alloc.ErrBadAddress
			}
		} else if newLarge {
			if _, err := oom(new, h.large.Record(c, t.arena.index, new, false)); err != nil {
				return err
			}
		}
		c.PersistU64(pmem.CatOther, slot, uint64(new))
		c.Fence()
		if old == pmem.Null {
			return nil
		}
		return t.Free(old)
	}
	if oldLarge {
		if _, live := h.large.Live(old); !live {
			return alloc.ErrBadAddress
		}
	}

	ring := t.arena
	if ns != nil {
		ring = h.arenas[ns.Owner]
	} else if os != nil {
		ring = h.arenas[os.Owner]
	}
	remoteOld := os != nil && h.arenas[os.Owner] != ring
	e := walog.Entry{Op: walog.OpPublish, Addr: slot, Aux: uint64(new)}
	switch {
	case ns != nil:
		e.Aux2 = uint16(ns.Class+1) << 8
	case newLarge:
		e.Aux2 = tagLarge << 8
	}

	// ring's resource is the slab lock of new's slab, which ring owns, and
	// of old's unless remoteOld: both blocks are resolved under it, and old's
	// geometry only changes there (morphInto, freeOld's demotion).
	ring.res.Acquire(c)
	var nb blockRef
	if ns != nil {
		idx, ok := reserved(ns, new)
		if !ok {
			ring.res.Release(c)
			return alloc.ErrBadAddress
		}
		nb = blockRef{ns, idx, ns.Class}
	}
	var ob blockRef
	oldIdx := -1 // old's index as a block_before of a morphed slab
	if os != nil && !remoteOld {
		os.Build(c)
		if i := os.OldBlockIndex(old); i >= 0 {
			oldIdx = i
			e.Aux2 |= uint16(os.OldClass + 1)
		} else if i := os.BlockIndex(old); i >= 0 && os.BlockAllocated(i) && !os.BlockReserved(i) && os.OverlapCount(i) == 0 {
			ob = blockRef{os, i, os.Class}
			e.Aux2 |= uint16(os.Class + 1)
		}
		if oldIdx < 0 && ob.s == nil {
			ring.res.Release(c)
			return alloc.ErrBadAddress
		}
		e.Old = old
	} else if oldLarge {
		e.Old = old
		e.Aux2 |= tagLarge
	}

	ring.wal.Append(c, e)
	if newLarge {
		// RecordAlloc fences its record, and the entry with it.
		if _, err := oom(new, h.large.Record(c, t.arena.index, new, false)); err != nil {
			// The entry names an extent that will never exist: retire it
			// before anything can follow it in the ring.
			ring.wal.Checkpoint(c)
			ring.res.Release(c)
			return err
		}
	} else {
		c.Fence()
	}
	c.PersistU64(pmem.CatOther, slot, uint64(new))
	c.Fence()

	if ns != nil {
		ring.commit(c, commitAlloc, []blockRef{nb}, true)
	}
	var err error
	var release *slab.Slab
	switch {
	case oldIdx >= 0:
		err = t.freeOldLocked(ring, os, oldIdx)
	case ob.s != nil:
		// Own-arena blocks go back into the thread's cache, like Free's.
		var tc *tcache.Cache
		if ring == t.arena {
			if tc = t.cache(ob.class); tc.Full() && !t.evictMagazineLocked(tc, ob.class) {
				tc = nil
			}
		}
		if tc != nil {
			ring.commit(c, freeToCache, []blockRef{ob}, true)
			tc.Push(ring.tcacheStripe(os.Geometry(), ob.idx), tcache.Block{Slab: os, Idx: ob.idx})
		} else if _, rel := ring.returnToSlab(c, os, ob.idx, fromPublish, nil); rel {
			release = os
		}
	case oldLarge:
		// RecordFree fences the tombstone.
		t.tombOne[0] = old
		err = badAddr(h.large.Tombstone(c, t.tombOne[:]))
	}
	if newLarge || oldLarge {
		ring.wal.Checkpoint(c)
	}
	ring.res.Release(c)

	if release != nil {
		ring.releaseSlab(c, release)
	}
	if oldLarge && err == nil {
		err = badAddr(h.large.Release(c, t.arena.index, old, false))
	}
	if remoteOld {
		err = t.freeSmall(os, old, true)
	}
	return err
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
			t.arena.freeBypass(t.ctx, b.Slab.(*slab.Slab), b.Idx, fromCache, nil)
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
