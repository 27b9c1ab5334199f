package core

import (
	"cmp"
	"slices"

	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
	"nvalloc/internal/tcache"
	"nvalloc/internal/walog"
)

// arena is one per-core allocation domain: per-class freelists of
// partially full slabs, the LRU list of morph candidates, and the
// arena's WAL. Its resource lock serializes all structural operations,
// models the paper's arena synchronization in virtual time, and is the
// slab lock of every slab the arena owns.
type arena struct {
	h     *Heap
	index int
	// Align res to its own cache line (h + index fill 16 bytes; the pad
	// brings res to offset 64). Resource is itself padded to 64 bytes, so
	// the arena lock — the hottest word in real-concurrency mode — never
	// shares a line with the read-mostly header fields above or the
	// freelist pointers below.
	_   [48]byte
	res pmem.Resource
	wal *walog.Log // opened in every variant; appended to only by LOG

	// dirty lists the slabs whose write-back mask went non-zero since the
	// last writeBack (LOG variant; see commit), and snaps holds what each of
	// their dirty lines read when it went dirty (slab.MarkDirty): one line
	// per line dirtied since the last writeBack, which empties both.
	// Guarded by res.
	dirty []*slab.Slab
	snaps []byte

	// slabsCreated counts newSlab successes (amortization diagnostics).
	slabsCreated uint64

	// freelists[class] heads doubly linked lists of slabs with free (or
	// reservable) blocks.
	freelists []*slab.Slab
	// LRU list of slabs (morph candidates); head = least recently used.
	lruHead, lruTail *slab.Slab
	// candidates holds slabs whose usage dropped below the SU threshold;
	// morphInto validates and consumes them in O(1) instead of scanning
	// the whole LRU list on every slab acquisition.
	candidates []*slab.Slab

	// depots[class] stacks full magazines of volatile-reserved blocks
	// (see tcache.Magazine); magSpares recycles emptied magazine arrays.
	// Both are guarded by the arena resource. A full depot makes overflow
	// fall back to the per-block bypass path, so each stack is bounded.
	depots    [][]*tcache.Magazine
	magSpares []*tcache.Magazine

	threads int // assigned thread count (least-loaded assignment)

	// Stats.
	morphs, morphRefusals uint64
}

func newArena(h *Heap, index int) *arena {
	return &arena{
		h:         h,
		index:     index,
		freelists: make([]*slab.Slab, sizeclass.NumClasses()),
		depots:    make([][]*tcache.Magazine, sizeclass.NumClasses()),
	}
}

// depotMags bounds the per-class magazine stack of one arena.
const depotMags = 4

// depotPop removes one full magazine for the class, or nil. Caller holds
// the arena resource.
func (a *arena) depotPop(class int) *tcache.Magazine {
	d := a.depots[class]
	if len(d) == 0 {
		return nil
	}
	m := d[len(d)-1]
	a.depots[class] = d[:len(d)-1]
	return m
}

// depotRoom reports whether the class can take another magazine. Caller
// holds the arena resource.
func (a *arena) depotRoom(class int) bool { return len(a.depots[class]) < depotMags }

// depotPush stacks a full magazine. Caller holds the arena resource and
// has checked depotRoom.
func (a *arena) depotPush(class int, m *tcache.Magazine) {
	a.depots[class] = append(a.depots[class], m)
}

// spareMag recycles an emptied magazine (bounded pool). Caller holds the
// arena resource.
func (a *arena) spareMag(m *tcache.Magazine) {
	if len(a.magSpares) < depotMags {
		a.magSpares = append(a.magSpares, m)
	}
}

// takeSpareMag returns a recycled empty magazine or nil. Caller holds
// the arena resource.
func (a *arena) takeSpareMag() *tcache.Magazine {
	if n := len(a.magSpares); n > 0 {
		m := a.magSpares[n-1]
		a.magSpares = a.magSpares[:n-1]
		return m
	}
	return nil
}

// ---- intrusive list plumbing -------------------------------------------

func (a *arena) freelistPush(s *slab.Slab) {
	cls := s.Class
	s.FreeNext = a.freelists[cls]
	s.FreePrev = nil
	if a.freelists[cls] != nil {
		a.freelists[cls].FreePrev = s
	}
	a.freelists[cls] = s
}

func (a *arena) freelistRemove(s *slab.Slab) {
	if s.FreePrev != nil {
		s.FreePrev.FreeNext = s.FreeNext
	} else if a.freelists[s.Class] == s {
		a.freelists[s.Class] = s.FreeNext
	}
	if s.FreeNext != nil {
		s.FreeNext.FreePrev = s.FreePrev
	}
	s.FreePrev, s.FreeNext = nil, nil
}

func (a *arena) onFreelist(s *slab.Slab) bool {
	return s.FreePrev != nil || s.FreeNext != nil || a.freelists[s.Class] == s
}

func (a *arena) lruPushTail(s *slab.Slab) {
	s.LRUPrev = a.lruTail
	s.LRUNext = nil
	if a.lruTail != nil {
		a.lruTail.LRUNext = s
	}
	a.lruTail = s
	if a.lruHead == nil {
		a.lruHead = s
	}
}

// adopt makes a the owner of slabs that no thread can hold blocks of,
// moving them onto its freelists and LRU list.
func (a *arena) adopt(slabs []*slab.Slab) {
	for _, s := range slabs {
		if s.Owner == a.index {
			continue
		}
		a.h.arenas[s.Owner].unlist(s)
		s.Owner = a.index
		a.freelistPush(s)
		if !s.IsSlabIn() {
			a.lruPushTail(s)
		}
	}
}

// unlist takes s off a's freelist and LRU list.
func (a *arena) unlist(s *slab.Slab) {
	if a.onFreelist(s) {
		a.freelistRemove(s)
	}
	a.lruRemove(s)
}

func (a *arena) lruRemove(s *slab.Slab) {
	if s.LRUPrev != nil {
		s.LRUPrev.LRUNext = s.LRUNext
	} else if a.lruHead == s {
		a.lruHead = s.LRUNext
	}
	if s.LRUNext != nil {
		s.LRUNext.LRUPrev = s.LRUPrev
	} else if a.lruTail == s {
		a.lruTail = s.LRUPrev
	}
	s.LRUPrev, s.LRUNext = nil, nil
}

func (a *arena) lruTouch(s *slab.Slab) {
	if a.lruTail == s {
		return
	}
	a.lruRemove(s)
	a.lruPushTail(s)
}

// ---- slab locks ----------------------------------------------------------

// lockSlabState takes s's slab lock, its owner arena's resource, for a
// reader that holds no arena resource: by Lock, so no virtual time and no
// schedule point. Never call it under an arena resource: that may be the
// very mutex it takes.
func (h *Heap) lockSlabState(s *slab.Slab) { h.arenas[s.Owner].res.Lock() }

func (h *Heap) unlockSlabState(s *slab.Slab) { h.arenas[s.Owner].res.Unlock() }

// ---- slab acquisition ---------------------------------------------------

// fill refills tc with up to want blocks of the class. Caller does NOT
// hold the arena lock. Returns the number of blocks cached.
func (a *arena) fill(c *pmem.Ctx, class int, tc *tcache.Cache, want int) int {
	a.res.Acquire(c)
	defer a.res.Release(c)
	return a.fillLocked(c, class, tc, want)
}

// fillLocked is fill's body; caller holds the arena lock.
//
// Depot magazines are consumed first: each one restocks MagCap blocks
// with no slab access, no bitmap search and no persistent write (the
// blocks are already volatile-reserved). Only then are fresh blocks
// carved out of freelist slabs. A slab Open listed unread is built first;
// one that turns out full reserves nothing and leaves the list.
func (a *arena) fillLocked(c *pmem.Ctx, class int, tc *tcache.Cache, want int) int {
	got := 0
	for got < want {
		m := a.depotPop(class)
		if m == nil {
			break
		}
		for i := 0; i < m.N; i++ {
			b := m.Blocks[i]
			tc.Push(a.tcacheStripe(b.Slab.(*slab.Slab).Geometry(), b.Idx), b)
			m.Blocks[i] = tcache.Block{}
		}
		got += m.N
		m.N = 0
		a.spareMag(m)
	}
	var idxBuf []int
	for got < want {
		s := a.freelists[class]
		if s == nil {
			s = a.acquireSlab(c, class)
			if s == nil {
				break
			}
		}
		s.Build(c)
		idxBuf = s.Reserve(want-got, idxBuf[:0])
		full := s.FreeCount() == 0
		for _, idx := range idxBuf {
			tc.Push(a.tcacheStripe(s.Geometry(), idx), tcache.Block{Slab: s, Idx: idx})
		}
		got += len(idxBuf)
		a.lruTouch(s)
		if full {
			a.freelistRemove(s)
		}
		c.Charge(pmem.CatSearch, 20)
	}
	return got
}

// transition names the persistent state change of one small block.
type transition uint8

const (
	commitAlloc transition = iota // reserved in a tcache -> allocated
	freeToCache                   // allocated -> reserved in a tcache
	freeToSlab                    // allocated -> free
)

// blockRef names one small block. class is the size class idx was
// resolved under: it is logged as Aux2 so replay never applies the index
// to a slab that has since morphed.
type blockRef struct {
	s     *slab.Slab
	idx   int
	class int
}

// commit is the one place a small-block state change becomes durable. a
// is the arena owning every block in ops. The order is the whole of the
// crash-consistency argument for the small path:
//
//  1. one WAL entry per block, written and flushed (LOG variant only);
//  2. each block's bitmap bit, written in the cache image. IC, which has
//     no log, flushes the bit's line now; GC never flushes it; LOG marks
//     the line dirty and leaves the flush to the WAL (writeBack);
//  3. one trailing fence, if anything was flushed.
//
// In LOG the entry is the durable record of the bit. The entry is flushed
// before the bit is written, so no crash boundary sees a bit without the
// entry that covers it. The bit's line may lag on media only while the
// entry is above the ring's checkpoint, where replay re-applies it
// idempotently; before the checkpoint word moves (ring wrap, Close, the
// end of replay) walog runs writeBack and fences it, so the checkpoint
// never passes an entry whose line is not on media — nor an entry of the
// group in flight here, whose bits are not even written yet: a move lands
// half a ring behind the append that triggers it, and MinWALEntries keeps
// half a ring longer than any group. A crash anywhere inside a group of n
// leaves a valid prefix of entries whose replay applies their bits; a
// missing or torn entry means the operation was never acknowledged. A
// completed morph persists the whole new bitmap and the index table from
// the volatile truth, and replay takes the ring's OpMorph entry as the
// line: the slab's earlier entries are void (replayWALs); an undone morph
// restores the old geometry, over which the surviving entries replay.
//
// Every caller holds a's resource, which guards the ring and the dirty
// list and is the slab lock of every block in ops. The fence stays inside
// that section: a log therefore never has more than one commit in flight,
// its at most one torn slot is the last one written, and that is exactly
// the one invalid slot walog.Replay tolerates. A free may also drop its
// slab below the morph threshold; that is noted here, in the order the
// bits clear. A free is also where a slab Open left unbuilt is first
// touched without a refill (directly, through the bypass, or in a
// remote-free drain): its bitmap is built here, before its bit changes.
//
// covered is set by publish (LOG only), whose one OpPublish entry, already
// flushed and fenced, stands for steps 1 and 3 of every block it names.
func (a *arena) commit(c *pmem.Ctx, tr transition, ops []blockRef, covered bool) {
	h := a.h
	if h.useWAL && !covered {
		op := walog.OpFreeBit
		if tr == commitAlloc {
			op = walog.OpAllocBit
		}
		for _, b := range ops {
			a.wal.Append(c, walog.Entry{Op: op, Addr: b.s.Base, Aux: uint64(b.idx), Aux2: uint16(b.class)})
		}
	}
	flushNow := h.persistSmall && !h.useWAL
	for _, b := range ops {
		b.s.Build(c)
		if h.useWAL {
			a.noteDirty(b.s, b.idx)
		}
		switch tr {
		case commitAlloc:
			b.s.CommitAlloc(c, b.idx, flushNow)
		case freeToCache:
			b.s.CommitFreeToCache(c, b.idx, flushNow)
		case freeToSlab:
			b.s.FreeBlock(c, b.idx, flushNow)
		}
		if tr != commitAlloc && b.s.UsageBelowMille(h.suMille) {
			a.noteCandidate(b.s)
		}
	}
	if h.persistSmall && !covered {
		c.Fence()
	}
}

// noteDirty records that block idx's bitmap line in s is about to be
// written without a flush under an entry of this arena's ring (before the
// write: see slab.MarkDirty). Caller holds the arena resource.
func (a *arena) noteDirty(s *slab.Slab, idx int) {
	if s.MarkDirty(idx, &a.snaps) {
		a.dirty = append(a.dirty, s)
	}
}

// writeBack flushes every bitmap line noteDirty recorded, slab by slab in
// address order, and reports whether it flushed anything. It does not
// fence: walog calls it ahead of every checkpoint move and fences between
// the two; Close fences it before sealing the closing state. A slab that
// was retired or morphed since it was listed has an empty mask and costs
// nothing. Caller holds the arena resource.
func (a *arena) writeBack(c *pmem.Ctx) bool {
	slices.SortFunc(a.dirty, func(x, y *slab.Slab) int { return cmp.Compare(x.Base, y.Base) })
	flushed := false
	for _, s := range a.dirty {
		flushed = s.FlushDirty(c, a.snaps) || flushed
	}
	clear(a.dirty)
	a.dirty = a.dirty[:0]
	a.snaps = a.snaps[:0]
	return flushed
}

// retire prepares a slab, already off every list, for release. It marks
// the slab dead, so neither morphInto nor noteCandidate picks it up once
// the resource is dropped for releaseSlab. In the LOG variant, another
// arena may format the same base in the same class while this ring still
// holds bit entries for it, and replay runs rings in arena order, not
// time order, so those entries must not outlive the slab: its dirty lines
// are flushed (the bitmap on media is then final) and an OpRetire entry
// voids every earlier bit entry of this ring for the base. Fenced here,
// inside the resource section, like every entry. Caller holds the arena
// resource.
func (a *arena) retire(c *pmem.Ctx, s *slab.Slab) {
	s.Dead = true
	if !a.h.useWAL {
		return
	}
	s.FlushDirty(c, a.snaps)
	a.wal.Append(c, walog.Entry{Op: walog.OpRetire, Addr: s.Base})
	c.Fence()
}

// fillAndCommit refills tc, then pops and commits the first block under
// the same arena-resource acquisition. Returns the committed block's
// address, or ok=false when the heap is exhausted.
func (a *arena) fillAndCommit(c *pmem.Ctx, class int, tc *tcache.Cache, want int) (pmem.PAddr, bool) {
	a.res.Acquire(c)
	defer a.res.Release(c)
	if a.fillLocked(c, class, tc, want) == 0 {
		return pmem.Null, false
	}
	b, ok := tc.Pop()
	if !ok {
		return pmem.Null, false
	}
	s := b.Slab.(*slab.Slab)
	// a's resource is s's slab lock because a owns s: a thread's tcache and
	// its arena's depots hold blocks of that arena's slabs only. Refills
	// take them from a's own freelists and depots, and a free or Unreserve
	// of another arena's block returns it to its owner's slab, never to a
	// cache (freeSmall, Unreserve).
	if s.Owner != a.index {
		panic("core: a tcache holds a block of another arena's slab")
	}
	a.commit(c, commitAlloc, []blockRef{{s, b.Idx, s.Class}}, false)
	return s.BlockAddr(b.Idx), true
}

// tcacheStripe returns the sub-tcache that takes block idx of a slab with
// geometry g.
func (a *arena) tcacheStripe(g *slab.Geom, idx int) int {
	if a.h.lay.Tcache == 1 {
		return 0
	}
	return g.Stripe(idx)
}

// acquireSlab finds a slab with free blocks for the class: morphing an
// underused slab of another class first (per the paper), else a new slab
// extent from the large allocator. Caller holds the arena lock.
func (a *arena) acquireSlab(c *pmem.Ctx, class int) *slab.Slab {
	if a.h.opts.Morphing {
		if s := a.morphInto(c, class); s != nil {
			return s
		}
	}
	return a.newSlab(c, class)
}

// noteCandidate queues a slab of a's whose occupancy fell below the SU
// threshold. Caller holds the arena resource.
func (a *arena) noteCandidate(s *slab.Slab) {
	if !a.h.opts.Morphing || s.Dead || s.OldClass >= 0 || s.MorphCand {
		return
	}
	s.MorphCand = true
	a.candidates = append(a.candidates, s)
}

// morphInto consumes the candidate list — slabs whose usage dropped below
// the SU occupancy threshold — looking for one that can legally morph
// into the requested class (the paper scans the LRU list; the candidate
// list finds the same slabs without a per-acquisition O(n) walk). On
// success the slab is re-labelled and moved to the class's freelist.
// Caller holds the arena resource.
func (a *arena) morphInto(c *pmem.Ctx, class int) *slab.Slab {
	h := a.h
	var keep []*slab.Slab
	var winner *slab.Slab
	for n := len(a.candidates); n > 0 && winner == nil; n = len(a.candidates) {
		s := a.candidates[n-1]
		a.candidates = a.candidates[:n-1]
		s.MorphCand = false
		c.Charge(pmem.CatSearch, 15)
		if s.Dead {
			continue
		}
		if s.Class == class || !s.UsageBelowMille(h.suMille) || !s.CanMorphTo(class, h.lay.Bitmap) {
			// Not usable for this class; keep it queued if it remains a
			// plausible candidate for other classes.
			a.morphRefusals++
			if s.OldClass < 0 && s.UsageBelowMille(h.suMille) {
				keep = append(keep, s)
			}
			continue
		}
		if h.useWAL {
			a.wal.Append(c, walog.Entry{Op: walog.OpMorph, Addr: s.Base, Aux: uint64(class)})
			c.Fence()
		}
		a.freelistRemove(s)
		// The morph transform is control metadata, not deferrable "small
		// metadata": its geometry switch (class, data offset, flag, index
		// table) must be durable in every variant, or a crash reverts the
		// slab to pre-morph geometry underneath live new-class blocks.
		// Variants with persistSmall=false only defer bitmap persistence.
		err := s.MorphTo(c, class, h.lay.Bitmap, true)
		if err != nil {
			a.freelistPush(s)
			a.morphRefusals++
			continue
		}
		// A slab_in leaves the LRU list (it cannot morph again) and joins
		// the new class's freelist.
		a.lruRemove(s)
		a.freelistPush(s)
		a.morphs++
		winner = s
	}
	for _, s := range keep {
		s.MorphCand = true
	}
	a.candidates = append(a.candidates, keep...)
	return winner
}

// newSlab allocates and formats a fresh slab extent. Caller holds the
// arena lock (the large allocator has its own).
func (a *arena) newSlab(c *pmem.Ctx, class int) *slab.Slab {
	h := a.h
	// Crash ordering: carve the extent, format the slab header, and only
	// then persist the bookkeeping record — recovery must never see a
	// recorded slab without a valid header. A crash before the record
	// leaves free space.
	base, err := h.large.Carve(c, a.index, slab.Size, true)
	if err != nil {
		return nil
	}
	s := slab.Format(h.mem, c, base, class, h.lay.Bitmap, h.persistSmall)
	if h.large.Record(c, a.index, base, true) != nil {
		// Bookkeeping exhausted: surface as allocation failure.
		_ = h.large.Uncarve(c, a.index, base, true) // cannot fail: base was just carved
		return nil
	}
	s.Owner = a.index
	a.slabsCreated++
	// Publish last: Format already installed the geometry snapshot, so a
	// lock-free reader that wins the race sees a fully-initialized slab.
	h.slabs.Store(base, s)
	a.freelistPush(s)
	a.lruPushTail(s)
	return s
}

// releaseSlab returns a completely empty slab, retired, to the large
// allocator.
func (a *arena) releaseSlab(c *pmem.Ctx, s *slab.Slab) {
	a.h.slabs.Delete(s.Base)
	// If the tombstone cannot be written the extent stays recorded and
	// activated: leaked until restart.
	_ = a.h.large.Free(c, a.index, s.Base, true)
}

// origin says what state a block returning to its slab is in.
type origin uint8

const (
	fromCache   origin = iota // reserved in a tcache or depot: nothing persistent changes
	fromUser                  // allocated: the free is logged and committed here
	fromPublish               // allocated, and the caller's publish entry already covers the free
)

// freeBypass returns a block straight to its slab (tcache full or
// drained). Caller does not hold locks. When g is non-nil it is the
// geometry snapshot idx was resolved against; the call reports false
// without acting if the slab morphed since (caller re-resolves).
// Tcache drains pass g == nil: their blocks are Reserved, and
// reservations pin the geometry (CanMorphTo requires Reserved == 0).
func (a *arena) freeBypass(c *pmem.Ctx, s *slab.Slab, idx int, from origin, g *slab.Geom) bool {
	a.res.Acquire(c)
	ok, release := a.returnToSlab(c, s, idx, from, g)
	a.res.Release(c)
	if release {
		a.releaseSlab(c, s)
	}
	return ok
}

// returnToSlab is freeBypass's body; caller holds the arena resource. When
// release is true the slab came back completely empty with a spare of its
// class left: it is off every list and retired, and the caller hands it to
// releaseSlab once the resource is dropped.
func (a *arena) returnToSlab(c *pmem.Ctx, s *slab.Slab, idx int, from origin, g *slab.Geom) (ok, release bool) {
	if g != nil && s.Geometry() != g {
		return false, false
	}
	if from == fromCache {
		s.Unreserve(idx)
		if s.UsageBelowMille(a.h.suMille) {
			a.noteCandidate(s)
		}
	} else {
		a.commit(c, freeToSlab, []blockRef{{s, idx, s.Class}}, from == fromPublish)
	}
	return true, a.regained(c, s)
}

// regained is the list upkeep for slab s after blocks returned to it: a
// slab with free blocks is on its class's freelist and at the LRU tail, and
// a slab left completely empty with a spare of its class besides it is
// taken off every list and retired. It reports the latter; the caller hands
// the slab to releaseSlab once the resource is dropped. Caller holds the
// arena resource.
func (a *arena) regained(c *pmem.Ctx, s *slab.Slab) (release bool) {
	empty := s.Allocated == 0 && s.Reserved == 0
	wasOff := !a.onFreelist(s)
	if wasOff && !empty {
		a.freelistPush(s)
	}
	a.lruTouch(s)
	if empty && s.OldClass < 0 {
		// Keep one spare slab per class; release the rest.
		if a.spareExists(s) {
			a.unlist(s)
			a.retire(c, s)
			return true
		}
		if wasOff {
			a.freelistPush(s)
		}
	}
	return false
}

// drainDepots unreserves every depot-magazine block back into its slab,
// returning slabs that regained space to their freelists. Reservations
// are volatile, so this writes nothing persistent — but the GC variant's
// shutdown SyncBitmap requires reservations drained first, and after the
// arena's last thread detaches every acknowledged free must read as free
// (a depot block is a reservation, which BlockAllocated counts as live).
// The magazines are detached under the arena lock, then each block goes
// back through freeBypass.
func (a *arena) drainDepots(c *pmem.Ctx) {
	a.res.Acquire(c)
	var mags []*tcache.Magazine
	for class := range a.depots {
		mags = append(mags, a.depots[class]...)
		a.depots[class] = a.depots[class][:0]
	}
	a.res.Release(c)
	for _, m := range mags {
		for i := 0; i < m.N; i++ {
			b := m.Blocks[i]
			a.freeBypass(c, b.Slab.(*slab.Slab), b.Idx, fromCache, nil)
			m.Blocks[i] = tcache.Block{}
		}
		m.N = 0
	}
}

// spareExists reports whether the class has another slab with free space
// besides s. Caller holds the arena lock.
func (a *arena) spareExists(s *slab.Slab) bool {
	head := a.freelists[s.Class]
	return head != nil && (head != s || head.FreeNext != nil)
}
