package baseline

import (
	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/walog"
)

// Thread is a baseline allocation handle.
type Thread struct {
	h      *Heap
	ar     *barena
	ctx    *pmem.Ctx
	caches [][]cached
	closed bool
}

type cached struct {
	s   *bslab
	idx int
}

var _ alloc.Thread = (*Thread)(nil)

// NewThread registers a worker, creating a private arena when
// Config.Arenas is 0.
func (h *Heap) NewThread() alloc.Thread {
	h.arenasMu.Lock()
	var ar *barena
	if h.cfg.Arenas == 0 {
		ar = h.newArena()
		h.arenas = append(h.arenas, ar)
	} else {
		// Least-loaded with a rotating start so sequential short-lived
		// threads still spread across arenas.
		n := len(h.arenas)
		ar = h.arenas[h.rr%n]
		for i := 1; i < n; i++ {
			a := h.arenas[(h.rr+i)%n]
			if a.threads < ar.threads {
				ar = a
			}
		}
		h.rr++
	}
	ar.threads++
	h.arenasMu.Unlock()
	return &Thread{
		h:      h,
		ar:     ar,
		ctx:    h.dev.NewCtx(),
		caches: make([][]cached, sizeclass.NumClasses()),
	}
}

// Ctx returns the worker's pmem context.
func (t *Thread) Ctx() *pmem.Ctx { return t.ctx }

const opBaseNS = 22 // classic allocators have slightly heavier fast paths

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
	h := t.h
	// Thread cache hit (volatile reservation, like all tcache designs).
	if cap := h.cfg.TcacheCap; cap > 0 {
		if len(t.caches[class]) == 0 {
			t.refill(class, cap)
		}
		if n := len(t.caches[class]); n > 0 {
			cb := t.caches[class][n-1]
			t.caches[class] = t.caches[class][:n-1]
			t.commitAlloc(cb.s, cb.idx)
			return cb.s.blockAddr(cb.idx), nil
		}
		return pmem.Null, alloc.ErrOutOfMemory
	}
	// No cache: take the arena lock per operation (PMDK, Makalu).
	t.ar.res.Acquire(t.ctx)
	s, idx := t.ar.takeBlock(t, class)
	t.ar.res.Release(t.ctx)
	if s == nil {
		return pmem.Null, alloc.ErrOutOfMemory
	}
	t.commitAlloc(s, idx)
	return s.blockAddr(idx), nil
}

// refill reserves up to n blocks into the thread cache.
func (t *Thread) refill(class, n int) {
	t.ar.res.Acquire(t.ctx)
	defer t.ar.res.Release(t.ctx)
	for i := 0; i < n; i++ {
		s, idx := t.ar.takeBlock(t, class)
		if s == nil {
			return
		}
		t.caches[class] = append(t.caches[class], cached{s, idx})
	}
}

// takeBlock pops one free block of the class (volatile reservation).
// Caller holds the arena lock.
func (a *barena) takeBlock(t *Thread, class int) (*bslab, int) {
	h := t.h
	s := a.free[class]
	if s == nil {
		s = h.newSlab(t.ctx, a, class)
		if s == nil {
			return nil, 0
		}
	}
	s.mu.Lock()
	var idx int
	if h.cfg.freelist() {
		if idx = s.freeHeadV; idx >= 0 {
			next := s.vnext[idx]
			s.freeHeadV = next
			// Persistent list head update: same header line every operation.
			h.dev.WriteU32(s.base+bsFreeHead, uint32(next+1))
			if h.cfg.FlushLinkOnAlloc {
				t.ctx.Flush(pmem.CatMeta, s.base+bsFreeHead, 4)
				t.ctx.Fence()
			}
		}
	} else {
		// First-fit via the hierarchical index: summary word then leaf
		// word, two TrailingZeros64 ops. Same index as the linear scan.
		idx = s.vbits.FirstFree()
		t.ctx.Charge(pmem.CatSearch, 12)
	}
	if idx < 0 {
		s.mu.Unlock()
		a.freelistRemove(s)
		return a.takeBlock(t, class)
	}
	s.vbits.Set(idx)
	s.reserved++
	exhausted := s.allocated+s.reserved == s.blocks
	s.mu.Unlock()
	if exhausted {
		a.freelistRemove(s)
	}
	return s, idx
}

// logEntry appends e to l and fences it. walog leaves the ordering fence
// to the operation that owns the crash-ordering argument; the schemes
// modelled here order every log entry on its own, so that is one fence
// per entry.
func (t *Thread) logEntry(l *walog.Log, e walog.Entry) {
	l.Append(t.ctx, e)
	t.ctx.Fence()
}

// logBit appends the style's Config.LogEntries entries for block idx of
// s: the bit operation, then commit records.
func (t *Thread) logBit(op walog.Op, s *bslab, idx int) {
	for i := 0; i < t.h.cfg.LogEntries; i++ {
		e := walog.Entry{Op: walog.OpNone, Addr: s.base}
		if i == 0 {
			e.Op, e.Aux = op, uint64(idx)
		}
		t.logEntry(s.owner.wal, e)
	}
}

// commitAlloc persists the allocation: the log entries, then the block's
// metadata unit. A shared arena's log is appended under its lock, a
// private one's (PAllocator's micro-log) without; a style that logs
// nothing commits in DRAM only.
func (t *Thread) commitAlloc(s *bslab, idx int) {
	h, a := t.h, s.owner
	logs := h.cfg.LogEntries > 0
	locked := logs && h.cfg.Arenas > 0
	if locked {
		a.res.Acquire(t.ctx)
	}
	t.logBit(walog.OpAllocBit, s, idx)
	s.mu.Lock()
	s.reserved--
	s.allocated++
	if logs {
		s.persistMeta(h, t.ctx, idx, true)
	}
	s.mu.Unlock()
	if locked {
		a.res.Release(t.ctx)
	}
}

func (t *Thread) mallocLarge(size uint64) (pmem.PAddr, error) {
	h, pool := t.h, t.h.large.Global()
	pool.Res.Acquire(t.ctx)
	defer pool.Res.Release(t.ctx)
	if h.cfg.SlowLargeSearch {
		// Persistent first-fit over live extent headers.
		t.ctx.Charge(pmem.CatSearch, int64(min(pool.Len(), 400))*90)
	}
	for i := 0; i < h.cfg.LargeTxnFlushes; i++ {
		t.logEntry(h.largeWAL, walog.Entry{Op: walog.OpAllocBit, Aux: size})
	}
	addr, err := pool.Alloc(t.ctx, size, 0, false)
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
	base := addr &^ (SlabSize - 1)
	s := t.h.slabs.Lookup(base)
	if s == nil {
		return t.freeLarge(addr)
	}
	idx := s.blockIndex(addr)
	if idx < 0 {
		return alloc.ErrBadAddress
	}
	t.freeSmall(s, idx)
	return nil
}

func (t *Thread) freeSmall(s *bslab, idx int) {
	h := t.h
	a := s.owner
	if h.cfg.Arenas == 0 && a != t.ar {
		// PAllocator's per-thread allocators make cross-thread frees
		// expensive: the block is queued on the owner's deferred-free
		// list (an extra persistent write plus a handoff), which is why
		// the paper sees it lose on Prod-con, Larson-small and FPTree.
		t.ctx.Charge(pmem.CatOther, 400)
		t.ctx.Flush(pmem.CatMeta, s.blockAddr(idx), 8)
		t.ctx.Fence()
	}
	a.res.Acquire(t.ctx)
	s.mu.Lock()
	if h.cfg.freelist() {
		// Embedded freelist push: the link lives in the freed block
		// itself — a write (and flush) to a random data cache line.
		h.dev.WriteU64(s.blockAddr(idx), uint64(s.freeHeadV+1))
		if h.cfg.FlushLinkOnFree {
			t.ctx.Flush(pmem.CatMeta, s.blockAddr(idx), 8)
			t.ctx.Fence()
		}
		h.dev.WriteU32(s.base+bsFreeHead, uint32(idx+1))
		if h.cfg.FlushLinkOnAlloc {
			t.ctx.Flush(pmem.CatMeta, s.base+bsFreeHead, 4)
			t.ctx.Fence()
		}
		s.vnext[idx] = s.freeHeadV
		s.freeHeadV = idx
	} else {
		t.logBit(walog.OpFreeBit, s, idx)
		s.persistMeta(h, t.ctx, idx, false)
	}
	s.vbits.Clear(idx)
	s.allocated--
	empty := s.allocated == 0 && s.reserved == 0
	wasFull := s.allocated+s.reserved == s.blocks-1
	s.mu.Unlock()
	if wasFull && !a.onFreelist(s, s.class) {
		a.freelistPush(s)
	}
	if empty {
		if head := a.free[s.class]; head != nil && (head != s || head.freeNext != nil) {
			if a.onFreelist(s, s.class) {
				a.freelistRemove(s)
			}
			h.releaseSlab(t.ctx, s)
		}
	}
	a.res.Release(t.ctx)
}

func (t *Thread) freeLarge(addr pmem.PAddr) error {
	h, pool := t.h, t.h.large.Global()
	pool.Res.Acquire(t.ctx)
	defer pool.Res.Release(t.ctx)
	for i := 0; i < h.cfg.LargeTxnFlushes; i++ {
		t.logEntry(h.largeWAL, walog.Entry{Op: walog.OpFreeBit, Aux: uint64(addr)})
	}
	if err := pool.Free(t.ctx, addr); err != nil {
		return alloc.ErrBadAddress
	}
	return nil
}

// Reserve, Unreserve and Publish give the baselines the shape of
// alloc.Thread without changing what they model: none of them can defer an
// allocation's persistence, so a reservation is a plain Malloc, and Publish
// is a persist between that malloc and the free of old, with the leak
// windows that composition has.
func (t *Thread) Reserve(size uint64) (pmem.PAddr, error) { return t.Malloc(size) }

// Unreserve frees a reservation.
func (t *Thread) Unreserve(addr pmem.PAddr) error { return t.Free(addr) }

// Publish logs the slot update as one publish entry (slot, new, old), as
// NVAlloc does, persists the slot and then frees old.
func (t *Thread) Publish(slot, new, old pmem.PAddr) error {
	if new == pmem.Null && old == pmem.Null {
		return alloc.ErrBadAddress
	}
	if t.h.cfg.LogEntries > 0 {
		a := t.ar
		a.res.Acquire(t.ctx)
		t.logEntry(a.wal, walog.Entry{Op: walog.OpPublish, Addr: slot, Aux: uint64(new), Old: old})
		a.res.Release(t.ctx)
	}
	t.ctx.PersistU64(pmem.CatOther, slot, uint64(new))
	t.ctx.Fence()
	if old == pmem.Null {
		return nil
	}
	return t.Free(old)
}

// Close drains the thread cache and merges statistics.
func (t *Thread) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for class, blocks := range t.caches {
		for _, cb := range blocks {
			a := cb.s.owner
			a.res.Acquire(t.ctx)
			cb.s.mu.Lock()
			cb.s.vbits.Clear(cb.idx)
			cb.s.reserved--
			if t.h.cfg.freelist() {
				cb.s.vnext[cb.idx] = cb.s.freeHeadV
				cb.s.freeHeadV = cb.idx
			}
			full := cb.s.allocated+cb.s.reserved == cb.s.blocks-1
			cb.s.mu.Unlock()
			if full && !a.onFreelist(cb.s, class) {
				a.freelistPush(cb.s)
			}
			a.res.Release(t.ctx)
		}
		t.caches[class] = nil
	}
	t.h.arenasMu.Lock()
	t.ar.threads--
	t.h.arenasMu.Unlock()
	t.ctx.Merge()
}

// ---- arena slab management ----------------------------------------------

func (a *barena) freelistPush(s *bslab) {
	s.freeNext = a.free[s.class]
	s.freePrev = nil
	if a.free[s.class] != nil {
		a.free[s.class].freePrev = s
	}
	a.free[s.class] = s
}

func (a *barena) freelistRemove(s *bslab) {
	if s.freePrev != nil {
		s.freePrev.freeNext = s.freeNext
	} else if a.free[s.class] == s {
		a.free[s.class] = s.freeNext
	}
	if s.freeNext != nil {
		s.freeNext.freePrev = s.freePrev
	}
	s.freePrev, s.freeNext = nil, nil
}

func (a *barena) onFreelist(s *bslab, class int) bool {
	return s.freePrev != nil || s.freeNext != nil || a.free[class] == s
}

// newSlab allocates and formats a slab for the class. Caller holds the
// arena lock.
func (h *Heap) newSlab(c *pmem.Ctx, a *barena, class int) *bslab {
	// Same crash ordering as NVAlloc: header before bookkeeping record.
	base, err := h.large.Carve(c, 0, SlabSize, true)
	if err != nil {
		return nil
	}
	s := h.mirror(base, class)
	s.owner = a
	if h.cfg.freelist() {
		s.rebuildFreelist()
	}
	h.dev.WriteU32(base+bsMagic, bslabMagic)
	h.dev.WriteU32(base+bsClass, uint32(class))
	h.dev.WriteU32(base+bsFreeHead, 1)
	h.dev.Zero(base+bsMetaOff, int(s.dataOff)-bsMetaOff)
	c.Flush(pmem.CatMeta, base, int(s.dataOff))
	c.Fence()
	if h.large.Record(c, 0, base, true) != nil {
		_ = h.large.Uncarve(c, 0, base, true) // cannot fail: base was just carved
		return nil
	}
	h.slabs.Store(base, s)
	a.freelistPush(s)
	return s
}

// releaseSlab returns an empty slab to the large allocator.
func (h *Heap) releaseSlab(c *pmem.Ctx, s *bslab) {
	h.slabs.Delete(s.base)
	_ = h.large.Free(c, 0, s.base, true)
}
