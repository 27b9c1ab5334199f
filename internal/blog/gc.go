package blog

import (
	"fmt"
	"sort"

	"nvalloc/internal/pmem"
	"nvalloc/internal/rbtree"
)

// gcBudgetChunks is the per-step copy budget of the incremental slow GC:
// each MaybeGC call while a slow GC is underway copies at most this many
// chunks' worth of live entries before returning to the append path, so GC
// work interleaves with appends instead of stalling them on a large live
// set.
const gcBudgetChunks = 4

// FastGC retires every active chunk whose validity bitmap is empty by
// clearing its activeness bit (one flush per retired chunk, no entry
// copying). Retired chunks stay linked in the chain and are reactivated
// in place when a new chunk is needed. Returns the number of chunks
// retired.
func (l *Log) FastGC(c *pmem.Ctx) int {
	if l.outstanding != 0 {
		l.gcWhileOutstanding++
	}
	retired := 0
	for _, v := range l.empties {
		v.queued = false
		// Revalidate: the chunk may have been refilled (reactivated as
		// current) or already recycled by a slow GC since it was queued.
		cur, ok := l.chunks.Get(v.addr)
		if !ok || cur != v || v.live != 0 || v == l.current {
			continue
		}
		l.dev.WriteU32(v.addr+coActive, 0)
		c.Flush(pmem.CatMeta, v.addr, chunkHdrSize)
		l.chunks.Delete(v.addr)
		l.dormant = append(l.dormant, v.addr)
		retired++
	}
	l.empties = l.empties[:0]
	if retired > 0 {
		c.Fence()
		l.fastGCs++
	}
	return retired
}

// gcEntry is one snapshot record scheduled for copying into the new
// chain. raw is the entry word at snapshot time; the copy step skips the
// entry when the live record has changed since (free, or free+realloc).
type gcEntry struct {
	addr pmem.PAddr
	raw  uint64
	ref  entryRef
}

// gcState is an in-progress incremental slow GC: the address-ordered
// live snapshot still to copy plus the partially built new chain. The
// new chain stays invisible to recovery (it hangs off the spare header
// pointer only at commit) until the alt bit flips, so a crash at any
// step leaves the old chain authoritative.
type gcState struct {
	pending []gcEntry
	next    int

	chunks  []pmem.PAddr
	vchunks []*vchunk
	index   map[pmem.PAddr]entryRef
	cursor  int // next slot in the last chunk
	copied  int
}

// GCActive reports whether an incremental slow GC is underway.
func (l *Log) GCActive() bool { return l.gc != nil }

// startSlowGC snapshots the live set and begins an incremental slow GC.
// It is a no-op if one is already underway. An upfront capacity check
// rejects a GC that could not complete even if nothing changes (a full
// region with everything live cannot shrink).
func (l *Log) startSlowGC(c *pmem.Ctx) error {
	if l.outstanding != 0 {
		l.gcWhileOutstanding++
	}
	if l.gc != nil {
		return nil
	}
	g := &gcState{index: make(map[pmem.PAddr]entryRef, len(l.index))}
	for addr, ref := range l.index {
		raw := l.dev.ReadU64(l.entryAddr(ref.chunk, ref.slot))
		g.pending = append(g.pending, gcEntry{addr: addr, raw: raw, ref: ref})
		c.Charge(pmem.CatSearch, 5)
	}
	sort.Slice(g.pending, func(i, j int) bool { return g.pending[i].addr < g.pending[j].addr })

	need := (len(g.pending) + l.perChunk - 1) / l.perChunk
	// The new chain may only use unlinked chunks: the free list plus the
	// region break. Dormant chunks still belong to the old chain.
	brk := l.readBreak()
	fromBreak := int((uint64(l.base) + l.size - brk) / ChunkSize)
	if need > len(l.free)+fromBreak {
		return fmt.Errorf("blog: slow GC needs %d chunks, only %d available", need, len(l.free)+fromBreak)
	}
	l.gc = g
	return nil
}

// gcTakeChunk obtains an unlinked chunk for the new chain, writes its
// header (volatile until the chunk-transition flush), links it after the
// previous chunk and makes it the chain tail. Returns false when neither
// the free list nor the region break can supply one.
func (l *Log) gcTakeChunk(c *pmem.Ctx) bool {
	g := l.gc
	var a pmem.PAddr
	if n := len(l.free); n > 0 {
		a = l.free[n-1]
		l.free = l.free[:n-1]
		l.dev.Zero(a+chunkHdrSize, ChunkSize-chunkHdrSize)
	} else {
		brk := l.readBreak()
		if brk+ChunkSize > uint64(l.base)+l.size {
			return false
		}
		a = pmem.PAddr(brk)
		// Persist the advanced break immediately so interleaved appends
		// never carve the same chunk. A crash mid-GC leaves the chunk
		// unreachable below the break, which Open's break self-heal
		// tolerates (the chunk is recycled by the next completed GC).
		l.advanceBreak(c, brk)
	}
	l.dev.WriteU32(a+coMagic, chunkMagic)
	l.dev.WriteU32(a+coActive, 1)
	l.dev.WriteU64(a+coNext, 0)
	l.dev.WriteU64(a+coSeq, l.nextSeq)
	l.dev.WriteU32(a+coCRC, chunkCRC(l.nextSeq))
	l.nextSeq++
	if n := len(g.chunks); n > 0 {
		// The predecessor is full: flush it as one sequential burst and
		// link it forward.
		prev := g.chunks[n-1]
		c.Flush(pmem.CatMeta, prev, ChunkSize)
		l.dev.WriteU64(prev+coNext, uint64(a))
		c.FlushU64(pmem.CatMeta, prev+coNext)
	}
	g.chunks = append(g.chunks, a)
	g.vchunks = append(g.vchunks, &vchunk{addr: a})
	g.cursor = 0
	return true
}

// gcAppend writes one entry word into the next slot of the new chain and
// indexes it. Entries are flushed chunk-at-a-time (at chunk transitions
// and at commit), not individually — the chain is invisible until the
// alt flip, so per-entry persistence buys nothing.
func (l *Log) gcAppend(c *pmem.Ctx, addr pmem.PAddr, raw uint64) error {
	g := l.gc
	if len(g.chunks) == 0 || g.cursor >= l.perChunk {
		if !l.gcTakeChunk(c) {
			return fmt.Errorf("blog: slow GC ran out of chunks")
		}
	}
	ca := g.chunks[len(g.chunks)-1]
	v := g.vchunks[len(g.vchunks)-1]
	slot := g.cursor
	g.cursor++
	l.dev.WriteU64(l.entryAddr(ca, slot), raw)
	v.set(slot)
	g.index[addr] = entryRef{chunk: ca, slot: slot}
	return nil
}

// abortSlowGC discards an incremental GC: every chunk of the partial new
// chain returns to the free list (break-carved chunks sit below the
// persisted break and are re-initialized on relink), and the snapshot is
// dropped. The old chain was never touched, so the log remains fully
// usable.
func (l *Log) abortSlowGC() {
	l.free = append(l.free, l.gc.chunks...)
	l.gc = nil
}

// slowGCStep advances an incremental slow GC by up to budget chunks'
// worth of entry copies, finalizing (reconcile + commit) once the
// snapshot is exhausted. Returns done=true when the GC has committed.
// On error the GC is aborted and must be restarted from scratch.
func (l *Log) slowGCStep(c *pmem.Ctx, budget int) (bool, error) {
	if l.outstanding != 0 {
		l.gcWhileOutstanding++
	}
	g := l.gc
	if g == nil {
		return true, nil
	}
	if budget < 1 {
		budget = 1
	}
	quota := budget * l.perChunk
	for quota > 0 && g.next < len(g.pending) {
		e := g.pending[g.next]
		g.next++
		cur, ok := l.index[e.addr]
		if !ok || l.dev.ReadU64(l.entryAddr(cur.chunk, cur.slot)) != e.raw {
			// Freed — or freed and re-recorded — since the snapshot; the
			// finalize pass reconciles against the then-current index.
			c.Charge(pmem.CatSearch, 2)
			continue
		}
		if err := l.gcAppend(c, e.addr, e.raw); err != nil {
			l.abortSlowGC()
			c.Fence()
			return false, err
		}
		g.copied++
		quota--
	}
	if g.next < len(g.pending) {
		c.Fence()
		return false, nil
	}
	if err := l.finishSlowGC(c); err != nil {
		return false, err
	}
	return true, nil
}

// finishSlowGC reconciles mutations that raced with the copy steps, then
// commits the new chain by persisting the spare head pointer and
// flipping the alt bit with a single 8-byte atomic persist. The old
// chain (active and dormant chunks alike) becomes free.
func (l *Log) finishSlowGC(c *pmem.Ctx) error {
	g := l.gc

	// Pass 1 — stale copies: entries copied into the new chain whose
	// live record has since been freed (or freed and re-recorded). Each
	// is overwritten in place with a tombstone — never zeroed, so the
	// new chain keeps the no-interior-holes invariant the recovery
	// cursor scan relies on. Address order keeps the pass deterministic.
	var stale []pmem.PAddr
	for addr, ref := range g.index {
		c.Charge(pmem.CatSearch, 2)
		cur, ok := l.index[addr]
		if ok && l.dev.ReadU64(l.entryAddr(cur.chunk, cur.slot)) == l.dev.ReadU64(l.entryAddr(ref.chunk, ref.slot)) {
			continue
		}
		stale = append(stale, addr)
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, addr := range stale {
		ref := g.index[addr]
		c.PersistU64(pmem.CatMeta, l.entryAddr(ref.chunk, ref.slot), encode(addr, 0, TypeTombstone))
		delete(g.index, addr)
	}

	// Pass 2 — missing records: appended after the snapshot, or
	// superseded snapshot entries (free+realloc) skipped or tombstoned
	// above. Copy their current words at the tail; replay order (later
	// seq/slot wins) makes them authoritative over any pass-1 tombstone.
	var missing []pmem.PAddr
	for addr := range l.index {
		if _, ok := g.index[addr]; !ok {
			missing = append(missing, addr)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, addr := range missing {
		ref := l.index[addr]
		raw := l.dev.ReadU64(l.entryAddr(ref.chunk, ref.slot))
		c.Charge(pmem.CatSearch, 2)
		if err := l.gcAppend(c, addr, raw); err != nil {
			l.abortSlowGC()
			c.Fence()
			return err
		}
		g.copied++
	}

	// Flush the tail chunk, then commit. Everything the new chain needs
	// is persistent before the alt flip, so a crash on either side of
	// the flip leaves one complete chain authoritative.
	var newHead pmem.PAddr
	if n := len(g.chunks); n > 0 {
		c.Flush(pmem.CatMeta, g.chunks[n-1], ChunkSize)
		newHead = g.chunks[0]
	}
	c.Fence()
	c.PersistU64(pmem.CatMeta, l.sparePtrOff(), pmem.SealU64(uint64(newHead)))
	c.Fence()
	c.PersistU64(pmem.CatMeta, l.base+offAlt, pmem.SealU64(l.alt^1))
	l.alt ^= 1
	c.Fence()

	// Recycle the entire old chain and install the new chain's volatile
	// state.
	l.chunks.Ascend(func(addr pmem.PAddr, _ *vchunk) bool {
		l.free = append(l.free, addr)
		return true
	})
	l.free = append(l.free, l.dormant...)
	l.dormant = nil
	for _, v := range l.empties {
		v.queued = false
	}
	l.empties = l.empties[:0]
	l.chunks = rbtree.New[pmem.PAddr, *vchunk](func(a, b pmem.PAddr) bool { return a < b })
	for _, v := range g.vchunks {
		l.chunks.Put(v.addr, v)
	}
	l.index = g.index
	if n := len(g.chunks); n > 0 {
		l.tail = g.chunks[n-1]
		l.current = g.vchunks[n-1]
		l.cursor = g.cursor
	} else {
		l.tail = pmem.Null
		l.current = nil
		l.cursor = 0
	}
	l.lastGCCopied = g.copied
	l.gc = nil
	l.slowGCs++
	return nil
}

// SlowGC runs a slow GC to completion: it rewrites every live normal
// entry into a fresh chunk chain built on the spare header pointer, then
// commits by flipping the alt bit. Tombstones and dead entries are
// dropped; every chunk of the old chain (active or dormant) becomes
// free. An incremental GC already underway is driven to completion; if
// that runs out of chunks (its copy holds entries freed since its
// snapshot), it is aborted, which returns its chunks, and a fresh one
// copies the live set alone. Returns the number of live entries copied.
func (l *Log) SlowGC(c *pmem.Ctx) (int, error) {
	resumed := l.gc != nil
	for {
		if err := l.startSlowGC(c); err != nil {
			return 0, err
		}
		// One unbounded step copies everything and commits, or fails.
		if _, err := l.slowGCStep(c, 1<<30); err != nil {
			if resumed {
				resumed = false
				continue
			}
			return 0, err
		}
		return l.lastGCCopied, nil
	}
}

// MaybeGC applies the paper's policy: run fast GC routinely; escalate to
// slow GC once the active chain exceeds SlowGCThreshold bytes. Slow GC
// proceeds incrementally — each call copies at most gcBudgetChunks
// chunks' worth of live entries, so the append path never stalls behind
// a full-log rewrite. Call it periodically (the large allocator invokes
// it on frees).
func (l *Log) MaybeGC(c *pmem.Ctx) {
	l.FastGC(c)
	if l.gc != nil {
		_, _ = l.slowGCStep(c, l.gcBudget)
		return
	}
	if uint64(l.chunks.Len())*ChunkSize > l.SlowGCThreshold {
		// Best effort: a full region with everything live cannot shrink.
		if err := l.startSlowGC(c); err == nil {
			_, _ = l.slowGCStep(c, l.gcBudget)
		}
	}
}
