// Package extent implements NVAlloc's large allocator (Section 4.3):
// extents from 16 KiB to a few MiB managed through virtual extent headers
// (VEHs) in DRAM, three lists (activated / reclaimed / retained), best-fit
// selection over a size-ordered red-black tree, split and coalesce via an
// address index (the paper's "R-tree"), decay-based demotion of free
// extents using a smootherstep threshold, and pluggable persistent
// bookkeeping: the log-structured bookkeeping log (package blog) or the
// classic in-place region headers the paper's baselines use.
package extent

import (
	"fmt"
	"slices"
	"sync/atomic"

	"nvalloc/internal/pmem"
	"nvalloc/internal/rbtree"
)

// PageSize is the allocation granularity of the large allocator.
const PageSize = 4096

// ChunkSize is the growth quantum requested from the device ("mmap").
const ChunkSize = 4 << 20

// State is a VEH's list membership.
type State int

// VEH states.
const (
	// Activated extents hold live data.
	Activated State = iota
	// Reclaimed extents are free with physical memory still mapped.
	Reclaimed
	// Retained extents are free with physical memory unmapped (virtual
	// reservation only).
	Retained
	// Released extents have been returned to the OS entirely.
	Released
)

// VEH is a virtual extent header: the DRAM descriptor of one extent.
type VEH struct {
	Addr     pmem.PAddr
	Size     uint64
	State    State
	Slab     bool
	LastFree int64 // virtual time of the last transition to a free state
}

// End returns the first address past the extent.
func (v *VEH) End() pmem.PAddr { return v.Addr + pmem.PAddr(v.Size) }

// Bookkeeper persists which extents are live. Implementations:
// *blog.Sharded (NVAlloc's log-structured bookkeeping) and *InPlace
// (classic region headers).
type Bookkeeper interface {
	// RecordAlloc persists that [addr,addr+size) is live, fenced. Alloc
	// records are never grouped: each must follow its own extent's
	// initialization.
	RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error
	// RecordFree persists that each addr is no longer live. Tombstones are
	// written and flushed individually and closed by one trailing fence
	// per group (the whole call, or one group per log shard), so a crash
	// mid-call persists a prefix of independently valid records — callers
	// only pass several addresses where that is safe (idempotent recovery
	// sweeps). It returns how many tombstones it persisted; on an error
	// that valid prefix stays persisted and fenced. The bookkeeper may
	// reorder addrs (grouping by shard): the persisted ones are addrs[:n]
	// as the slice reads on return.
	RecordFree(c *pmem.Ctx, addrs []pmem.PAddr) (n int, err error)
	// MaybeGC lets the bookkeeper compact itself.
	MaybeGC(c *pmem.Ctx)
	// DataOffset returns how many bytes at the start of each fresh chunk
	// the bookkeeper reserves for itself (0 for the log; a header table
	// for in-place bookkeeping).
	DataOffset() uint64
	// SelfLocked reports whether the bookkeeper serializes its own calls
	// (the sharded log takes a per-shard resource inside each record
	// append) and may be called concurrently. The allocator skips its
	// external BookRes for such bookkeepers, so appends routed to
	// different shards never serialize.
	SelfLocked() bool
}

type sizeKey struct {
	size uint64
	addr pmem.PAddr
}

func sizeLess(a, b sizeKey) bool {
	if a.size != b.size {
		return a.size < b.size
	}
	return a.addr < b.addr
}

// Allocator is the large allocator. All methods require the caller to
// hold Res (the global large-allocation lock) unless documented
// otherwise: the bookkeeping record layer is serialized by its own
// resource (BookRes) so record persistence can run off the global lock.
type Allocator struct {
	// Res serializes the large allocator's volatile structures (trees,
	// lists, VEH map) and models its lock in virtual time.
	Res pmem.Resource

	// BookRes serializes the persistent bookkeeper (record appends, GC).
	// Every bookkeeper call goes through it; legacy paths that hold Res
	// nest BookRes inside it (lock order: Res before BookRes), while the
	// arena extent cache and the shard pools take BookRes alone. Because
	// a nested section's virtual span is a subset of the enclosing Res
	// section, nesting adds zero wait in workloads that only use the
	// legacy paths — the split only shows up when record traffic actually
	// moves off the global lock.
	BookRes pmem.Resource

	dev            pmem.Dev
	book           Bookkeeper
	bookSelfLocked bool
	heapBase       pmem.PAddr
	heapEnd        pmem.PAddr
	brkAddr        pmem.PAddr // persistent cell holding the heap break

	// freeOne is Free's one-address group for RecordFree, guarded by Res
	// like the rest of Free: handing the bookkeeper a slice of a local
	// through the interface would cost a heap allocation per free.
	freeOne [1]pmem.PAddr

	activated map[pmem.PAddr]*VEH
	bySize    [2]*rbtree.Tree[sizeKey, *VEH] // [Reclaimed-?], indexed by state-1... see idx()
	byAddr    *rbtree.Tree[pmem.PAddr, *VEH] // all free extents (coalescing)
	released  *rbtree.Tree[sizeKey, *VEH]    // OS-returned ranges, reusable last

	fifoReclaimed []*VEH
	fifoRetained  []*VEH

	metaBytes      uint64
	activatedBytes uint64
	reclaimedBytes uint64
	retainedBytes  uint64
	peak           uint64

	// cacheOverhead counts activated-but-idle bytes parked in arena slab
	// caches and shard-pool leases: space that is carved out of the free
	// lists (so it sits in activatedBytes) but holds no live data. Used
	// subtracts it so usage tables report live sub-allocation bytes and
	// compare apples-to-apples with cache-free configurations; the raw
	// value is exposed as LeaseOverhead. Atomic because the cache and
	// shard paths adjust it without holding Res.
	cacheOverhead atomic.Int64

	decay decayState

	// FirstFit switches extent selection from best-fit (size-ordered
	// tree) to address-ordered first-fit (ablation experiments).
	FirstFit bool

	// Stats
	Splits, Coalesces, Grows uint64
}

func (a *Allocator) idx(s State) *rbtree.Tree[sizeKey, *VEH] {
	switch s {
	case Reclaimed:
		return a.bySize[0]
	case Retained:
		return a.bySize[1]
	default:
		panic("extent: no size index for state")
	}
}

// Config configures a large allocator.
type Config struct {
	HeapBase pmem.PAddr // first usable heap byte (chunk aligned)
	HeapEnd  pmem.PAddr // one past the last usable heap byte
	BreakPtr pmem.PAddr // persistent 8-byte cell storing the heap break
	// MetaBytes is counted into Used (superblock, WAL and log regions).
	MetaBytes uint64
}

// New creates a large allocator over a fresh heap region.
func New(dev pmem.Dev, book Bookkeeper, cfg Config) *Allocator {
	a := newAllocator(dev, book, cfg)
	c := dev.NewCtx()
	c.PersistU64(pmem.CatMeta, cfg.BreakPtr, uint64(cfg.HeapBase))
	c.Merge()
	return a
}

func newAllocator(dev pmem.Dev, book Bookkeeper, cfg Config) *Allocator {
	if cfg.HeapBase%ChunkSize != 0 {
		panic(fmt.Sprintf("extent: heap base %#x must be %d-aligned", cfg.HeapBase, ChunkSize))
	}
	a := &Allocator{
		dev:       dev,
		book:      book,
		heapBase:  cfg.HeapBase,
		heapEnd:   cfg.HeapEnd,
		brkAddr:   cfg.BreakPtr,
		activated: make(map[pmem.PAddr]*VEH),
		byAddr:    rbtree.New[pmem.PAddr, *VEH](func(x, y pmem.PAddr) bool { return x < y }),
		released:  rbtree.New[sizeKey, *VEH](sizeLess),
		metaBytes: cfg.MetaBytes,
	}
	a.bySize[0] = rbtree.New[sizeKey, *VEH](sizeLess)
	a.bySize[1] = rbtree.New[sizeKey, *VEH](sizeLess)
	a.decay.init()
	a.peak = a.metaBytes
	a.bookSelfLocked = book.SelfLocked()
	return a
}

// bookAcquire serializes a bookkeeper call through BookRes unless the
// bookkeeper locks itself (the sharded log).
func (a *Allocator) bookAcquire(c *pmem.Ctx) {
	if !a.bookSelfLocked {
		a.BookRes.Acquire(c)
	}
}

func (a *Allocator) bookRelease(c *pmem.Ctx) {
	if !a.bookSelfLocked {
		a.BookRes.Release(c)
	}
}

// Used returns committed bytes: metadata regions, live extents and dirty
// (reclaimed) free extents, minus cache/lease overhead — activated space
// parked in slab caches and shard leases holds no live data and would
// otherwise inflate usage by whole 2 MiB leases. Retained and released
// memory is unmapped and not counted.
func (a *Allocator) Used() uint64 {
	u := a.metaBytes + a.activatedBytes + a.reclaimedBytes
	if ov := a.cacheOverhead.Load(); ov > 0 {
		if uint64(ov) >= u {
			return 0
		}
		u -= uint64(ov)
	}
	return u
}

// LeaseOverhead returns the bytes of activated-but-idle space currently
// parked in arena slab caches and shard-pool leases (the amount Used
// subtracts).
func (a *Allocator) LeaseOverhead() uint64 {
	if ov := a.cacheOverhead.Load(); ov > 0 {
		return uint64(ov)
	}
	return 0
}

// Peak returns the high-water mark of Used.
func (a *Allocator) Peak() uint64 { return a.peak }

// ResetPeak restarts peak tracking.
func (a *Allocator) ResetPeak() { a.peak = a.Used() }

func (a *Allocator) notePeak() {
	if u := a.Used(); u > a.peak {
		a.peak = u
	}
}

// Lookup returns the activated VEH at addr.
func (a *Allocator) Lookup(addr pmem.PAddr) (*VEH, bool) {
	v, ok := a.activated[addr]
	return v, ok
}

// Activated exposes the live-extent map for recovery sweeps; callers
// must hold Res and must not mutate it.
func (a *Allocator) Activated() map[pmem.PAddr]*VEH { return a.activated }

func align(v, al pmem.PAddr) pmem.PAddr { return (v + al - 1) &^ (al - 1) }

// removeFree detaches a free VEH from the size and address indexes.
func (a *Allocator) removeFree(v *VEH) {
	switch v.State {
	case Reclaimed:
		a.reclaimedBytes -= v.Size
	case Retained:
		a.retainedBytes -= v.Size
	case Released:
		a.released.Delete(sizeKey{v.Size, v.Addr})
		a.byAddr.Delete(v.Addr)
		return
	}
	a.idx(v.State).Delete(sizeKey{v.Size, v.Addr})
	a.byAddr.Delete(v.Addr)
}

// insertFree registers a free VEH under the given state.
func (a *Allocator) insertFree(v *VEH, s State, now int64) {
	v.State = s
	v.LastFree = now
	v.Slab = false
	switch s {
	case Reclaimed:
		a.reclaimedBytes += v.Size
		a.fifoReclaimed = append(a.fifoReclaimed, v)
		a.idx(s).Put(sizeKey{v.Size, v.Addr}, v)
	case Retained:
		a.retainedBytes += v.Size
		a.fifoRetained = append(a.fifoRetained, v)
		a.idx(s).Put(sizeKey{v.Size, v.Addr}, v)
	case Released:
		a.released.Put(sizeKey{v.Size, v.Addr}, v)
	}
	a.byAddr.Put(v.Addr, v)
}

// bestFit finds the smallest free extent in the given state that can hold
// size bytes at the requested alignment. Returns nil if none fits. With
// FirstFit set it instead scans the address index in order, charging one
// probe per candidate (the classic algorithm's cost profile).
func (a *Allocator) bestFit(tree *rbtree.Tree[sizeKey, *VEH], size uint64, al pmem.PAddr, c *pmem.Ctx) *VEH {
	if a.FirstFit {
		var hit *VEH
		wantReclaimed := tree == a.bySize[0]
		wantRetained := tree == a.bySize[1]
		a.byAddr.Ascend(func(_ pmem.PAddr, v *VEH) bool {
			c.Charge(pmem.CatSearch, 20)
			switch {
			case wantReclaimed && v.State != Reclaimed:
				return true
			case wantRetained && v.State != Retained:
				return true
			case !wantReclaimed && !wantRetained && v.State != Released:
				return true
			}
			start := align(v.Addr, al)
			if uint64(start-v.Addr)+size <= v.Size {
				hit = v
				return false
			}
			return true
		})
		return hit
	}
	key := sizeKey{size: size}
	for {
		k, v, ok := tree.Ceiling(key)
		if !ok {
			return nil
		}
		c.Charge(pmem.CatSearch, 25)
		start := align(v.Addr, al)
		if uint64(start-v.Addr)+size <= v.Size {
			return v
		}
		// Alignment padding does not fit; try the next larger extent.
		key = sizeKey{size: k.size, addr: k.addr + 1}
	}
}

// carve splits the free extent v so that [start,start+size) becomes an
// activated extent; any head or tail remainder stays free in v's former
// state.
func (a *Allocator) carve(c *pmem.Ctx, v *VEH, start pmem.PAddr, size uint64, now int64) *VEH {
	state := v.State
	a.removeFree(v)
	if start > v.Addr {
		head := &VEH{Addr: v.Addr, Size: uint64(start - v.Addr)}
		a.insertFree(head, state, now)
		a.Splits++
	}
	if end := start + pmem.PAddr(size); end < v.End() {
		tail := &VEH{Addr: end, Size: uint64(v.End() - end)}
		a.insertFree(tail, state, now)
		a.Splits++
	}
	nv := &VEH{Addr: start, Size: size, State: Activated}
	a.activated[start] = nv
	a.activatedBytes += size
	return nv
}

// grow extends the heap break by at least `need` bytes (in ChunkSize
// units) and returns the new free extent covering the data part of the
// growth.
func (a *Allocator) grow(c *pmem.Ctx, need uint64, now int64) (*VEH, error) {
	brk := pmem.PAddr(a.dev.ReadU64(a.brkAddr))
	res := a.book.DataOffset()
	g := uint64(ChunkSize)
	for g < need+res {
		g += ChunkSize
	}
	if uint64(brk)+g > uint64(a.heapEnd) {
		return nil, fmt.Errorf("extent: heap exhausted (break %#x + %d > %#x)", brk, g, a.heapEnd)
	}
	nbrk := brk + pmem.PAddr(g)
	c.PersistU64(pmem.CatMeta, a.brkAddr, uint64(nbrk))
	c.Fence()
	a.Grows++
	if res > 0 {
		a.metaBytes += res * (g / ChunkSize)
	}
	// Each chunk in the growth may reserve a bookkeeper header.
	var first *VEH
	for off := uint64(0); off < g; off += ChunkSize {
		v := &VEH{Addr: brk + pmem.PAddr(off+res), Size: ChunkSize - res}
		a.insertFree(v, Reclaimed, now)
		if first == nil {
			first = v
		} else {
			// Adjacent chunks coalesce unless a header separates them.
			if res == 0 {
				a.coalesce(c, v)
			}
		}
	}
	// Re-fetch: coalescing may have merged `first` away.
	if res == 0 {
		if _, v, ok := a.byAddr.Floor(brk); ok && v.State == Reclaimed && v.End() >= nbrk {
			return v, nil
		}
	}
	return first, nil
}

// Alloc serves a large allocation: best-fit over the reclaimed list, then
// the retained list, then OS-released ranges, then heap growth. The
// caller holds Res.
func (a *Allocator) Alloc(c *pmem.Ctx, size uint64, alignTo pmem.PAddr, slabExtent bool) (pmem.PAddr, error) {
	addr, err := a.AllocDeferRecord(c, size, alignTo, slabExtent)
	if err != nil {
		return pmem.Null, err
	}
	if err := a.Record(c, addr); err != nil {
		return pmem.Null, err
	}
	return addr, nil
}

// AllocDeferRecord carves an extent without persisting its bookkeeping
// record. Slab allocation uses it so the persistent record is written
// only *after* the slab header is formatted and flushed — a crash in
// between leaves unrecorded (and therefore free) space instead of a
// recorded slab with a garbage header. Callers must invoke Record once
// the extent's own initialization is persistent.
func (a *Allocator) AllocDeferRecord(c *pmem.Ctx, size uint64, alignTo pmem.PAddr, slabExtent bool) (pmem.PAddr, error) {
	if size == 0 {
		return pmem.Null, fmt.Errorf("extent: zero-size allocation")
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	if alignTo < PageSize {
		alignTo = PageSize
	}
	now := c.Now
	v := a.bestFit(a.idx(Reclaimed), size, alignTo, c)
	if v == nil {
		v = a.bestFit(a.idx(Retained), size, alignTo, c)
	}
	if v == nil {
		v = a.bestFit(a.released, size, alignTo, c)
	}
	if v == nil {
		nv, err := a.grow(c, size+uint64(alignTo), now)
		if err != nil {
			return pmem.Null, err
		}
		v = nv
	}
	start := align(v.Addr, alignTo)
	nv := a.carve(c, v, start, size, now)
	nv.Slab = slabExtent
	a.notePeak()
	a.maybeDecay(c)
	return nv.Addr, nil
}

// Record persists the bookkeeping record of an extent carved with
// AllocDeferRecord.
func (a *Allocator) Record(c *pmem.Ctx, addr pmem.PAddr) error {
	v, ok := a.activated[addr]
	if !ok {
		return fmt.Errorf("extent: record of unknown extent %#x", addr)
	}
	a.bookAcquire(c)
	err := a.book.RecordAlloc(c, v.Addr, v.Size, v.Slab)
	a.bookRelease(c)
	return err
}

// RecordExtent persists a bookkeeping record for an extent the caller
// already owns (carved earlier via AllocDeferRecord, a cache refill, or
// a shard lease) without touching the allocator's volatile structures:
// only BookRes is taken, so the global lock stays free. The caller must
// have persisted the extent's own initialization (slab header, object
// contents) first — the record makes the space survive recovery.
func (a *Allocator) RecordExtent(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	a.bookAcquire(c)
	err := a.book.RecordAlloc(c, addr, size, slab)
	a.bookRelease(c)
	return err
}

// TombstoneExtent persists a free record for addr without touching the
// allocator's volatile structures (BookRes only). The caller keeps
// ownership of the space — typically to reinsert it into an arena cache
// or a shard free run — and must not reuse it before this returns, so a
// later record for overlapping space can never coexist with the old one
// after a crash.
func (a *Allocator) TombstoneExtent(c *pmem.Ctx, addr pmem.PAddr) error {
	return a.Tombstone(c, []pmem.PAddr{addr})
}

// Tombstone is TombstoneExtent on a caller-owned one-address group, for
// paths that must not allocate: the group escapes into the bookkeeper, so
// a literal would be a heap allocation per call (the shard pools and core's
// threads keep one each; see Allocator.freeOne).
func (a *Allocator) Tombstone(c *pmem.Ctx, one []pmem.PAddr) error {
	a.bookAcquire(c)
	_, err := a.book.RecordFree(c, one)
	if err == nil {
		a.book.MaybeGC(c)
	}
	a.bookRelease(c)
	return err
}

// Free returns an extent to the reclaimed list and coalesces it with free
// neighbours. The caller holds Res.
func (a *Allocator) Free(c *pmem.Ctx, addr pmem.PAddr) error {
	if _, ok := a.activated[addr]; !ok {
		return fmt.Errorf("extent: free of unknown extent %#x", addr)
	}
	a.freeOne[0] = addr
	a.bookAcquire(c)
	_, err := a.book.RecordFree(c, a.freeOne[:])
	a.bookRelease(c)
	if err != nil {
		return err
	}
	return a.Release(c, addr)
}

// Release is Free for an extent that has no live record: one carved with
// AllocDeferRecord and never recorded, or whose tombstone the caller has
// already persisted (TombstoneExtent). The caller holds Res.
func (a *Allocator) Release(c *pmem.Ctx, addr pmem.PAddr) error {
	v, ok := a.activated[addr]
	if !ok {
		return fmt.Errorf("extent: free of unknown extent %#x", addr)
	}
	delete(a.activated, addr)
	a.activatedBytes -= v.Size
	a.insertFree(v, Reclaimed, c.Now)
	a.coalesce(c, v)
	a.bookAcquire(c)
	a.book.MaybeGC(c)
	a.bookRelease(c)
	a.maybeDecay(c)
	return nil
}

// FreeBatch frees a group of extents with their tombstones persisted as
// one RecordFree group (one trailing fence per log shard). Like
// recovery-time Free calls, the caller serializes access itself; a crash
// mid-batch leaves a prefix of the tombstones persisted, which is safe
// wherever the batch is idempotent (recovery GC re-runs). If the
// bookkeeper fails mid-batch, exactly the extents whose tombstones it
// did persist are freed before the error is returned: an extent must
// never stay activated without a record.
func (a *Allocator) FreeBatch(c *pmem.Ctx, addrs []pmem.PAddr) error {
	vs := make([]*VEH, 0, len(addrs))
	for _, addr := range addrs {
		v, ok := a.activated[addr]
		if !ok {
			return fmt.Errorf("extent: free of unknown extent %#x", addr)
		}
		vs = append(vs, v)
	}
	if len(vs) == 0 {
		return nil
	}
	// The bookkeeper may regroup its argument; the volatile frees below
	// keep the caller's (address) order, which recovery relies on for
	// deterministic free lists.
	routed := slices.Clone(addrs)
	a.bookAcquire(c)
	n, err := a.book.RecordFree(c, routed)
	if err == nil {
		a.book.MaybeGC(c)
	}
	a.bookRelease(c)
	if err != nil {
		vs = vs[:0]
		for _, addr := range routed[:n] {
			vs = append(vs, a.activated[addr])
		}
	}
	for _, v := range vs {
		delete(a.activated, v.Addr)
		a.activatedBytes -= v.Size
		a.insertFree(v, Reclaimed, c.Now)
		a.coalesce(c, v)
	}
	a.maybeDecay(c)
	return err
}

// AllocSlabBatch carves up to n extents of the given size (aligned to
// their own size) in one Res critical section, appending them to out.
// The extents are activated but unrecorded — exactly the state the arena
// extent cache holds them in; a crash before RecordExtent makes them
// free again at recovery. Fewer than n extents (or none) are returned
// when the heap cannot satisfy the batch.
func (a *Allocator) AllocSlabBatch(c *pmem.Ctx, size uint64, n int, out []pmem.PAddr) []pmem.PAddr {
	a.Res.Acquire(c)
	defer a.Res.Release(c)
	for i := 0; i < n; i++ {
		// Counted as overhead before the carve so the cache-bound extent
		// never spikes the peak (it holds no live data yet).
		a.cacheOverhead.Add(int64(size))
		addr, err := a.AllocDeferRecord(c, size, pmem.PAddr(size), true)
		if err != nil {
			a.cacheOverhead.Add(-int64(size))
			break
		}
		out = append(out, addr)
	}
	return out
}

// AllocLease carves one activated-but-unrecorded, overhead-counted
// extent in a single Res critical section — the shard pools' lease
// primitive. Like cached slab extents, a lease dissolves at recovery;
// only its recorded sub-allocations survive.
func (a *Allocator) AllocLease(c *pmem.Ctx, size uint64, alignTo pmem.PAddr) (pmem.PAddr, error) {
	a.Res.Acquire(c)
	defer a.Res.Release(c)
	a.cacheOverhead.Add(int64(size))
	addr, err := a.AllocDeferRecord(c, size, alignTo, true)
	if err != nil {
		a.cacheOverhead.Add(-int64(size))
		return pmem.Null, err
	}
	return addr, nil
}

// ReleaseUnrecordedBatch returns activated-but-unrecorded extents (cache
// overflow, returned shard leases) to the free lists in one Res critical
// section. No tombstone is written — there is no record to kill.
func (a *Allocator) ReleaseUnrecordedBatch(c *pmem.Ctx, addrs []pmem.PAddr) {
	if len(addrs) == 0 {
		return
	}
	a.Res.Acquire(c)
	defer a.Res.Release(c)
	for _, addr := range addrs {
		a.releaseUnrecorded(c, addr)
	}
	a.maybeDecay(c)
}

// releaseUnrecorded puts one activated extent back on the free lists
// without bookkeeping. Caller holds Res.
func (a *Allocator) releaseUnrecorded(c *pmem.Ctx, addr pmem.PAddr) {
	v, ok := a.activated[addr]
	if !ok {
		return // defensive: double release is a no-op
	}
	delete(a.activated, addr)
	a.activatedBytes -= v.Size
	// Every unrecorded release comes from a cache or a lease, whose
	// bytes were counted as overhead on entry.
	a.cacheOverhead.Add(-int64(v.Size))
	a.insertFree(v, Reclaimed, c.Now)
	a.coalesce(c, v)
}

// coalesce merges v with its free neighbours of the same state.
func (a *Allocator) coalesce(c *pmem.Ctx, v *VEH) {
	for {
		merged := false
		if k, left, ok := a.byAddr.Floor(v.Addr - 1); ok && left.End() == v.Addr && left.State == v.State {
			_ = k
			a.removeFree(left)
			a.removeFree(v)
			left.Size += v.Size
			a.insertFree(left, v.State, maxI64(left.LastFree, v.LastFree))
			v = left
			a.Coalesces++
			merged = true
			c.Charge(pmem.CatSearch, 30)
		}
		if _, right, ok := a.byAddr.Ceiling(v.End()); ok && right.Addr == v.End() && right.State == v.State {
			a.removeFree(right)
			a.removeFree(v)
			v.Size += right.Size
			a.insertFree(v, v.State, maxI64(v.LastFree, right.LastFree))
			a.Coalesces++
			merged = true
			c.Charge(pmem.CatSearch, 30)
		}
		if !merged {
			return
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FreeBytes returns (reclaimed, retained) byte totals for tests and
// space-breakdown experiments.
func (a *Allocator) FreeBytes() (reclaimed, retained uint64) {
	return a.reclaimedBytes, a.retainedBytes
}

// ActivatedBytes returns the bytes of live extents.
func (a *Allocator) ActivatedBytes() uint64 { return a.activatedBytes }

// AddMetaBytes grows the accounted metadata footprint (used by the heap
// to charge WAL/log regions).
func (a *Allocator) AddMetaBytes(n uint64) {
	a.metaBytes += n
	a.notePeak()
}
