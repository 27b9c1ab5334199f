// Package extent implements NVAlloc's large allocator (Section 4.3):
// extents from 16 KiB to a few MiB managed through virtual extent headers
// (VEHs) in DRAM, three lists (activated / reclaimed / retained), best-fit
// selection over a size-ordered red-black tree, split and coalesce via an
// address index (the paper's "R-tree"), decay-based demotion of reclaimed
// extents to retained using a smootherstep threshold, and pluggable
// persistent bookkeeping: the log-structured bookkeeping log (package blog)
// or the classic in-place region headers the paper's baselines use.
//
// An extent is free, then carved (activated, volatile), then recorded
// (persistent), then tombstoned (persistent), then released (volatile) and
// free again; a carved extent that has no record is free after a crash.
// Allocator is the one door to that state machine: it routes a request to
// the tier that serves it — an arena's slab cache, a shard pool, the global
// best-fit Pool — and takes every lock the tier needs. DESIGN.md §8.4 has
// the diagram, the routing and the lock order. The mutating entry points,
// all of them:
//
//	Allocator.Carve      free -> carved
//	Allocator.Record     carved -> recorded
//	Allocator.Tombstone  recorded -> tombstoned
//	Allocator.Release    carved or tombstoned -> free
//	Allocator.Uncarve    carved -> free, in the state the carve took it from
//	Allocator.Alloc      Carve + Record, the carve undone by Uncarve if the record fails
//	Allocator.Free       Tombstone + Release
//	Allocator.FreeBatch  Free of a group under one fence (recovery sweeps)
//	Pool.Alloc, Pool.Free  the same two compositions on the global pool alone,
//	                       for a caller that holds Pool.Res across sections of
//	                       its own (package baseline)
//
// Everything else exported reads, constructs or keeps a statistic.
// Allocator: Live, Each, Used, Peak, ResetPeak (restarts a statistic),
// CommitMeta (counts metadata the caller put in service), LeaseOverhead,
// FreeBytes, Stats,
// CacheStats, Locks, Global, Indexed, and IndexAll (for tests: the eagerly
// indexed state a rebuild no longer builds). Pool: the field Res, and Len.
// Constructors: New, Rebuild (recovery), NewInPlace. Types: Config, Tiers,
// VEH, State, LiveRecord, the Bookkeeper interface and InPlace, which
// implements it (Recover lists the records its header tables hold, Clear
// empties them for a format over an older heap).
// Constants of the geometry (PageSize, ChunkSize, HeaderBytes, LeaseSize,
// LeaseAlign, MaxShardAlloc) and of decay (DecayEpochNS, DecayWindowNS,
// Smootherstep).
package extent

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"nvalloc/internal/pmem"
	"nvalloc/internal/rbtree"
)

// The verbs' own errors wrap one of these; any other error is the
// bookkeeper's.
var (
	// ErrUnknown: the address is not an extent the verb's tier holds.
	ErrUnknown = errors.New("unknown extent")
	// ErrNoSpace: the heap cannot supply the extent.
	ErrNoSpace = errors.New("heap exhausted")
)

// PageSize is the allocation granularity of the large allocator.
const PageSize = 4096

// ChunkSize is the growth quantum requested from the device ("mmap").
// Chunks are counted from the heap base.
const ChunkSize = 4 << 20

// HeapBase returns where a heap starts whose metadata regions end at
// metaEnd: the next LeaseAlign boundary. Slabs and leases keep their
// alignment, and the heap reserves no more than its metadata holds.
func HeapBase(metaEnd uint64) uint64 { return (metaEnd + LeaseAlign - 1) &^ (LeaseAlign - 1) }

// State is a VEH's list membership.
type State int

// VEH states.
const (
	// Activated extents hold live data.
	Activated State = iota
	// Reclaimed extents are free with their pages still backed: space
	// this process activated and then released.
	Reclaimed
	// Retained extents are free and hold no pages (address space only):
	// fresh growth, the gaps a rebuild finds, and reclaimed space that
	// decayed, whose pages the device gave back (pmem.Dev.Discard). Decay
	// ends here: a retained extent stays retained until a carve takes it.
	Retained
)

// VEH is a virtual extent header: the DRAM descriptor of one extent.
type VEH struct {
	Addr     pmem.PAddr
	Size     uint64
	State    State
	Slab     bool
	LastFree int64 // Clock time of the last transition to a free state
	From     State // an activated extent's free state before its carve

	// prev and next thread a reclaimed extent on the pool's decay list; next
	// threads a header coalesce merged away on the pool's spare list.
	prev, next *VEH
}

// End returns the first address past the extent.
func (v *VEH) End() pmem.PAddr { return v.Addr + pmem.PAddr(v.Size) }

// Bookkeeper persists which extents are live. Implementations:
// *blog.Log (NVAlloc's log-structured bookkeeping) and *InPlace (classic
// region headers).
type Bookkeeper interface {
	// RecordAlloc persists that [addr,addr+size) is live, fenced. Alloc
	// records are never grouped: each must follow its own extent's
	// initialization.
	RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error
	// RecordFree persists that each addr is no longer live. Tombstones are
	// written and flushed individually and closed by one trailing fence
	// per group (the whole call, or each part of a call the log splits to
	// compact), so a crash mid-call persists a prefix of independently
	// valid records — callers only pass several addresses where that is
	// safe (idempotent recovery sweeps). It returns how many tombstones it
	// persisted, addrs[:n]; on an error that prefix stays persisted and
	// fenced.
	RecordFree(c *pmem.Ctx, addrs []pmem.PAddr) (n int, err error)
	// DataOffset returns how many bytes at the start of each fresh chunk
	// the bookkeeper reserves for itself (0 for the log; a header table
	// for in-place bookkeeping).
	DataOffset() uint64
	// SelfLocked reports whether the bookkeeper serializes its own calls
	// (the log takes its resource for slot reservation only) and may be
	// called concurrently. The pool skips its own book resource for such
	// bookkeepers, so an append's flush and fence never run under a lock.
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

// oneAddr is the one-address group a tier's frees hand the bookkeeper,
// guarded by the tier's lock. The group escapes through the interface, so a
// literal would be a heap allocation per free.
type oneAddr [1]pmem.PAddr

func (g *oneAddr) group(addr pmem.PAddr) []pmem.PAddr {
	g[0] = addr
	return g[:]
}

// held is what the global pool and every shard pool embed: the resource
// that serializes the tier and models its lock in virtual time, and the
// tier's tombstone group.
type held struct {
	Res pmem.Resource
	oneAddr
}

func (h *held) lock(c *pmem.Ctx)   { h.Res.Acquire(c) }
func (h *held) unlock(c *pmem.Ctx) { h.Res.Release(c) }

// Pool is the global best-fit pool: the trees, lists and VEH map of Section
// 4.3, plus the persistent bookkeeper every tier records through. It is the
// tier of last resort behind an Allocator, which takes Res around every
// call; a caller that reaches it through Allocator.Global holds Res itself.
type Pool struct {
	held

	// bookRes serializes a bookkeeper that does not lock itself (record
	// writes of the in-place scheme). A section that already holds Res
	// nests it inside (lock order: Res before bookRes); the slab caches and
	// shard pools take it alone. A nested section's virtual span is a subset
	// of the enclosing one, so nesting adds no wait of its own.
	bookRes pmem.Resource

	dev            pmem.Dev
	book           Bookkeeper
	bookSelfLocked bool
	heapBase       pmem.PAddr
	heapEnd        pmem.PAddr
	brkAddr        pmem.PAddr // persistent cell holding the heap break

	activated map[pmem.PAddr]*VEH
	// recovered holds the live records Rebuild was handed, in address
	// order. A record has no entry in activated until deactivate first
	// needs one (take); until then lookup, Len and Each read it here.
	// indexed marks the records that got their entry, pending counts the
	// rest.
	recovered []LiveRecord
	indexed   []bool
	pending   int
	bySize    [2]*rbtree.Tree[sizeKey, *VEH] // free extents by size, one tree per free state (idx)
	byAddr    *rbtree.Tree[pmem.PAddr, *VEH] // all free extents (coalescing)

	// decay heads the decay list, a ring through the sentinel: the
	// reclaimed extents in the order they joined it, oldest (decay.next)
	// first. spare holds the headers coalesce merged away, for split to take.
	decay VEH
	spare *VEH

	// metaBytes, activatedBytes and reclaimedBytes are the terms of used,
	// and peak its high-water mark. They are atomic because metadata is
	// committed (CommitMeta) by callers that may hold Res already or hold
	// no lock of the pool's at all; the other writers hold Res.
	metaBytes      atomic.Uint64
	activatedBytes atomic.Uint64
	reclaimedBytes atomic.Uint64
	retainedBytes  uint64
	peak           atomic.Uint64

	// cacheOverhead counts activated-but-idle bytes parked in arena slab
	// caches and shard-pool leases: space that is carved out of the free
	// lists (so it sits in activatedBytes) but holds no live data. Used
	// subtracts it so usage tables report live sub-allocation bytes and
	// compare apples-to-apples with cache-free configurations; the raw
	// value is exposed as LeaseOverhead. Atomic because the cache and
	// shard paths adjust it without holding Res.
	cacheOverhead atomic.Int64

	lastDecay int64 // Clock time of the last decay pass

	splits, coalesces, grows uint64
	decays                   uint64 // decay passes run
}

// idx returns the size index of free state s: the reclaimed or the
// retained list.
func (p *Pool) idx(s State) *rbtree.Tree[sizeKey, *VEH] {
	if s != Reclaimed && s != Retained {
		panic("extent: no size index for state")
	}
	return p.bySize[s-Reclaimed]
}

// Config places a large allocator on its device.
type Config struct {
	HeapBase pmem.PAddr // first usable heap byte (LeaseAlign aligned: see HeapBase)
	HeapEnd  pmem.PAddr // one past the last usable heap byte
	BreakPtr pmem.PAddr // persistent 8-byte cell storing the heap break
	// MetaBytes is the metadata counted into Used from the start: what the
	// heap's metadata regions hold in service when the allocator is built.
	// What they put in service later is added by CommitMeta.
	MetaBytes uint64
}

func newPool(dev pmem.Dev, book Bookkeeper, cfg Config) *Pool {
	if cfg.HeapBase%LeaseAlign != 0 {
		panic(fmt.Sprintf("extent: heap base %#x must be %d-aligned", cfg.HeapBase, LeaseAlign))
	}
	p := &Pool{
		dev:            dev,
		book:           book,
		bookSelfLocked: book.SelfLocked(),
		heapBase:       cfg.HeapBase,
		heapEnd:        cfg.HeapEnd,
		brkAddr:        cfg.BreakPtr,
		activated:      make(map[pmem.PAddr]*VEH),
		byAddr:         rbtree.New[pmem.PAddr, *VEH](func(x, y pmem.PAddr) bool { return x < y }),
	}
	p.metaBytes.Store(cfg.MetaBytes)
	p.peak.Store(cfg.MetaBytes)
	p.decay.prev, p.decay.next = &p.decay, &p.decay
	for i := range p.bySize {
		p.bySize[i] = rbtree.New[sizeKey, *VEH](sizeLess)
	}
	return p
}

// record persists that [addr,addr+size) is live: carved -> recorded. The
// extent's own initialization (slab header, object contents) must be
// persistent first — the record is what makes the space survive recovery.
func (p *Pool) record(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	if !p.bookSelfLocked {
		p.bookRes.Acquire(c)
		defer p.bookRes.Release(c)
	}
	return p.book.RecordAlloc(c, addr, size, slab)
}

// tombstone persists that the extents of the group are no longer live
// (recorded -> tombstoned) and returns how many it persisted: all of them
// unless err is set. Whoever holds an extent must not let its space be
// reused before this returns, so a later record for overlapping space can
// never coexist with the old one after a crash. The group escapes into the
// bookkeeper (which may reorder it), so a caller with one address owns a
// one-address group (oneAddr, a core thread's tombOne) instead of
// paying a heap allocation per call.
func (p *Pool) tombstone(c *pmem.Ctx, group []pmem.PAddr) (int, error) {
	if !p.bookSelfLocked {
		p.bookRes.Acquire(c)
		defer p.bookRes.Release(c)
	}
	return p.book.RecordFree(c, group)
}

// used returns committed bytes: metadata regions, live extents and dirty
// (reclaimed) free extents, minus cache/lease overhead — activated space
// parked in slab caches and shard leases holds no live data and would
// otherwise inflate usage by whole 2 MiB leases. Retained extents hold no
// pages and are not counted: growth no carve has reached yet, and
// reclaimed space whose pages decay gave back.
func (p *Pool) used() uint64 {
	u := p.metaBytes.Load() + p.activatedBytes.Load() + p.reclaimedBytes.Load()
	if ov := p.cacheOverhead.Load(); ov > 0 {
		if uint64(ov) >= u {
			return 0
		}
		u -= uint64(ov)
	}
	return u
}

// notePeak raises the peak to Used. Every writer of a term of Used calls
// it after its write, so whichever of two concurrent writers notes last
// sees both writes.
func (p *Pool) notePeak() {
	u := p.used()
	for {
		pk := p.peak.Load()
		if u <= pk || p.peak.CompareAndSwap(pk, u) {
			return
		}
	}
}

// commitMeta counts n more bytes of metadata as committed and notes the
// peak. It takes no lock, so a bookkeeper may call it while a tier holds
// Res.
func (p *Pool) commitMeta(n uint64) {
	p.metaBytes.Add(n)
	p.notePeak()
}

// Len returns the number of activated extents, recovered records that have
// no entry yet included.
func (p *Pool) Len() int { return len(p.activated) + p.pending }

// lookup returns the size and kind of the activated extent at addr. A
// recovered record answers without getting an entry.
func (p *Pool) lookup(addr pmem.PAddr) (size uint64, slab, ok bool) {
	if v, ok := p.activated[addr]; ok {
		return v.Size, v.Slab, true
	}
	if i, ok := p.pendingAt(addr); ok {
		r := p.recovered[i]
		return r.Size, r.Slab, true
	}
	return 0, false, false
}

// pendingAt returns the index of the recovered record that starts at addr
// and has no entry yet.
func (p *Pool) pendingAt(addr pmem.PAddr) (int, bool) {
	if p.pending == 0 {
		return 0, false
	}
	i, found := slices.BinarySearchFunc(p.recovered, addr, func(r LiveRecord, a pmem.PAddr) int { return cmp.Compare(r.Addr, a) })
	return i, found && !p.indexed[i]
}

// take removes the activated extent at addr from the activated set and
// returns it. A recovered record gets its entry here, the first time a
// free or a release needs it, and the caller pays the 30 ns an eager
// rebuild would have charged at open.
func (p *Pool) take(c *pmem.Ctx, addr pmem.PAddr) (*VEH, bool) {
	if v, ok := p.activated[addr]; ok {
		delete(p.activated, addr)
		return v, true
	}
	i, ok := p.pendingAt(addr)
	if !ok {
		return nil, false
	}
	p.indexed[i] = true
	p.pending--
	c.Charge(pmem.CatSearch, 30)
	r := p.recovered[i]
	return &VEH{Addr: r.Addr, Size: r.Size, State: Activated, Slab: r.Slab, From: Reclaimed}, true
}

func align(v, al pmem.PAddr) pmem.PAddr { return (v + al - 1) &^ (al - 1) }

// removeFree detaches a free VEH from the size and address indexes.
func (p *Pool) removeFree(v *VEH) {
	p.leaveList(v)
	p.idx(v.State).Delete(sizeKey{v.Size, v.Addr})
	p.byAddr.Delete(v.Addr)
}

// insertFree registers a free VEH under the given state.
func (p *Pool) insertFree(v *VEH, s State, now int64) {
	v.Slab = false
	p.joinList(v, s, now)
	p.idx(s).Put(sizeKey{v.Size, v.Addr}, v)
	p.byAddr.Put(v.Addr, v)
}

// demote moves a reclaimed VEH to the retained list. Its address entry
// stays as it is, and its size entry moves to the retained tree, which
// takes the node of an earlier delete: a decay pass, which runs inside the
// request path, allocates nothing once the trees have their working size.
func (p *Pool) demote(v *VEH, now int64) {
	p.leaveList(v)
	p.joinList(v, Retained, now)
	k := sizeKey{v.Size, v.Addr}
	p.idx(Reclaimed).Delete(k)
	p.idx(Retained).Put(k, v)
}

// leaveList takes v off its free list: its count and, for a reclaimed
// extent, the decay list.
func (p *Pool) leaveList(v *VEH) {
	if v.State == Retained {
		p.retainedBytes -= v.Size
		return
	}
	p.reclaimedBytes.Add(-v.Size)
	v.prev.next, v.next.prev = v.next, v.prev
	v.prev, v.next = nil, nil
}

// joinList puts v on the free list of state s: its count and, for the
// reclaimed list, which decay ages, the tail of the decay list.
func (p *Pool) joinList(v *VEH, s State, now int64) {
	v.State = s
	v.LastFree = now
	if s == Retained {
		p.retainedBytes += v.Size
		return
	}
	p.reclaimedBytes.Add(v.Size)
	v.prev, v.next = p.decay.prev, &p.decay
	v.prev.next, p.decay.prev = v, v
}

// newVEH returns a header for the free extent [addr, addr+size): one that
// coalesce merged away, or a new one.
func (p *Pool) newVEH(addr pmem.PAddr, size uint64) *VEH {
	v := p.spare
	if v == nil {
		return &VEH{Addr: addr, Size: size}
	}
	p.spare = v.next
	*v = VEH{Addr: addr, Size: size}
	return v
}

// retire puts the header of an extent coalesce merged away on the spare
// list.
func (p *Pool) retire(v *VEH) {
	*v = VEH{next: p.spare}
	p.spare = v
}

// bestFit finds the smallest free extent in the given state that can hold
// size bytes at the requested alignment. Returns nil if none fits.
func (p *Pool) bestFit(tree *rbtree.Tree[sizeKey, *VEH], size uint64, al pmem.PAddr, c *pmem.Ctx) *VEH {
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

// split cuts the free extent v so that [start,start+size) becomes an
// activated extent, which keeps v's header; any head or tail remainder
// stays free in v's former state.
func (p *Pool) split(v *VEH, start pmem.PAddr, size uint64, now int64) *VEH {
	state, addr, end := v.State, v.Addr, v.End()
	p.removeFree(v)
	if start > addr {
		p.insertFree(p.newVEH(addr, uint64(start-addr)), state, now)
		p.splits++
	}
	if e := start + pmem.PAddr(size); e < end {
		p.insertFree(p.newVEH(e, uint64(end-e)), state, now)
		p.splits++
	}
	*v = VEH{Addr: start, Size: size, State: Activated, From: state}
	p.activated[start] = v
	p.activatedBytes.Add(size)
	return v
}

// grow extends the heap break by at least `need` bytes (in ChunkSize
// units) and returns the new free extent covering the data part of the
// growth. The growth is retained: nothing has touched it yet, so what the
// carve leaves of it is not committed.
func (p *Pool) grow(c *pmem.Ctx, need uint64, now int64) (*VEH, error) {
	brk := pmem.PAddr(p.dev.ReadU64(p.brkAddr))
	res := p.book.DataOffset()
	g := uint64(ChunkSize)
	for g < need+res {
		g += ChunkSize
	}
	if uint64(brk)+g > uint64(p.heapEnd) {
		return nil, fmt.Errorf("extent: %w (break %#x + %d > %#x)", ErrNoSpace, brk, g, p.heapEnd)
	}
	nbrk := brk + pmem.PAddr(g)
	c.PersistU64(pmem.CatMeta, p.brkAddr, uint64(nbrk))
	c.Fence()
	p.grows++
	if res > 0 {
		p.metaBytes.Add(res * (g / ChunkSize))
	}
	// Each chunk in the growth may reserve a bookkeeper header.
	var first *VEH
	for off := uint64(0); off < g; off += ChunkSize {
		v := &VEH{Addr: brk + pmem.PAddr(off+res), Size: ChunkSize - res}
		p.insertFree(v, Retained, now)
		if first == nil {
			first = v
		} else {
			// Adjacent chunks coalesce unless a header separates them.
			if res == 0 {
				p.coalesce(c, v)
			}
		}
	}
	// Re-fetch: coalescing may have merged `first` away.
	if res == 0 {
		if _, v, ok := p.byAddr.Floor(brk); ok && v.State == Retained && v.End() >= nbrk {
			return v, nil
		}
	}
	return first, nil
}

// carve takes an extent off the free lists: best fit over the reclaimed
// list, then the retained list, then heap growth.
// Free -> carved: the extent is activated in this process only, and a crash
// before its record returns the space. Slabs are carved this way so that the
// record is written only after the slab header is formatted and flushed — a
// crash in between leaves free space, never a recorded slab with a garbage
// header.
func (p *Pool) carve(c *pmem.Ctx, size uint64, alignTo pmem.PAddr, slab bool) (pmem.PAddr, error) {
	if size == 0 {
		return pmem.Null, fmt.Errorf("extent: zero-size allocation")
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	if alignTo < PageSize {
		alignTo = PageSize
	}
	now := c.Clock()
	v := p.bestFit(p.idx(Reclaimed), size, alignTo, c)
	if v == nil {
		v = p.bestFit(p.idx(Retained), size, alignTo, c)
	}
	if v == nil {
		nv, err := p.grow(c, size+uint64(alignTo), now)
		if err != nil {
			return pmem.Null, err
		}
		v = nv
	}
	nv := p.split(v, align(v.Addr, alignTo), size, now)
	nv.Slab = slab
	p.notePeak()
	p.maybeDecay(c)
	return nv.Addr, nil
}

// deactivate returns the activated extent at addr to the free lists and
// coalesces it with free neighbours: to the reclaimed list, or with
// restore to the state its carve took it from.
func (p *Pool) deactivate(c *pmem.Ctx, addr pmem.PAddr, restore bool) (size uint64, err error) {
	v, ok := p.take(c, addr)
	if !ok {
		return 0, fmt.Errorf("extent: free of %w %#x", ErrUnknown, addr)
	}
	p.activatedBytes.Add(-v.Size)
	size = v.Size // coalesce may grow v
	state := Reclaimed
	if restore {
		state = v.From
	}
	p.insertFree(v, state, c.Clock())
	p.coalesce(c, v)
	return size, nil
}

// release frees an extent that has no live record: carved and never
// recorded, or tombstoned. Carved or tombstoned -> free.
func (p *Pool) release(c *pmem.Ctx, addr pmem.PAddr) error {
	_, err := p.deactivate(c, addr, false)
	p.maybeDecay(c)
	return err
}

// uncarve undoes the carve of an extent that was never recorded: carved ->
// free, in the state it was carved from.
func (p *Pool) uncarve(c *pmem.Ctx, addr pmem.PAddr) error {
	_, err := p.deactivate(c, addr, true)
	p.maybeDecay(c)
	return err
}

// alloc is carve + record on tier t, whose lock the caller holds; a carve
// that cannot be recorded is undone by uncarve, so a failed allocation
// leaves the tier and the free lists as it found them.
func (p *Pool) alloc(c *pmem.Ctx, t tier, size uint64, alignTo pmem.PAddr, slab bool) (pmem.PAddr, error) {
	addr, err := t.carve(c, size, alignTo, slab)
	if err != nil {
		return pmem.Null, err
	}
	size, slab, _ = t.lookup(addr)
	if err := p.record(c, addr, size, slab); err != nil {
		_ = t.uncarve(c, addr) // cannot fail: addr was carved under this lock
		return pmem.Null, err
	}
	return addr, nil
}

// free is tombstone + release on tier t, whose lock the caller holds. The
// tombstone is persistent before the space becomes reusable; if it cannot
// be written the extent stays recorded and activated.
func (p *Pool) free(c *pmem.Ctx, t tier, addr pmem.PAddr) error {
	if _, _, ok := t.lookup(addr); !ok {
		return fmt.Errorf("extent: free of %w %#x", ErrUnknown, addr)
	}
	if _, err := p.tombstone(c, t.group(addr)); err != nil {
		return err
	}
	return t.release(c, addr)
}

// Alloc is carve + record on the global pool. The caller holds Res.
func (p *Pool) Alloc(c *pmem.Ctx, size uint64, alignTo pmem.PAddr, slab bool) (pmem.PAddr, error) {
	return p.alloc(c, p, size, alignTo, slab)
}

// Free is tombstone + release on the global pool. The caller holds Res.
func (p *Pool) Free(c *pmem.Ctx, addr pmem.PAddr) error { return p.free(c, p, addr) }

// freeBatch frees a group of extents with their tombstones persisted as
// one RecordFree group. A crash
// mid-batch leaves a prefix of the tombstones persisted, which is safe
// wherever the batch is idempotent (recovery GC re-runs). If the
// bookkeeper fails mid-batch, exactly the extents whose tombstones it
// did persist are freed before the error is returned: an extent must
// never stay activated without a record.
func (p *Pool) freeBatch(c *pmem.Ctx, addrs []pmem.PAddr) error {
	for _, addr := range addrs {
		if _, _, ok := p.lookup(addr); !ok {
			return fmt.Errorf("extent: free of %w %#x", ErrUnknown, addr)
		}
	}
	if len(addrs) == 0 {
		return nil
	}
	n, err := p.tombstone(c, addrs)
	for _, addr := range addrs[:n] {
		_, _ = p.deactivate(c, addr, false) // cannot fail: checked above
	}
	p.maybeDecay(c)
	return err
}

// lease carves up to n extents (fewer, or none, when the heap cannot supply
// them) in one Res critical section, appending them to out. They are carved
// and idle — what a slab cache and a shard pool hold: activated, flagged as
// slabs so object walks and GC sweeps skip them, counted as overhead, and
// free again after a crash.
func (p *Pool) lease(c *pmem.Ctx, size uint64, alignTo pmem.PAddr, n int, out []pmem.PAddr) []pmem.PAddr {
	p.lock(c)
	defer p.unlock(c)
	for i := 0; i < n; i++ {
		// Counted as overhead before the carve so the idle extent never
		// spikes the peak (it holds no live data yet).
		p.cacheOverhead.Add(int64(size))
		addr, err := p.carve(c, size, alignTo, true)
		if err != nil {
			p.cacheOverhead.Add(-int64(size))
			break
		}
		out = append(out, addr)
	}
	return out
}

// reclaim takes idle extents back from a slab cache or a shard pool (cache
// overflow and flush, a returned lease) in one Res critical section: to the
// reclaimed list, or with restore (an undone carve's lease) to the state
// they were leased from. Idle space that turns reclaimed counts in Used
// again.
func (p *Pool) reclaim(c *pmem.Ctx, addrs []pmem.PAddr, restore bool) {
	if len(addrs) == 0 {
		return
	}
	p.lock(c)
	defer p.unlock(c)
	for _, addr := range addrs {
		if size, err := p.deactivate(c, addr, restore); err == nil {
			p.cacheOverhead.Add(-int64(size))
		}
	}
	p.notePeak()
	p.maybeDecay(c)
}

// handOut moves size idle bytes of a slab cache or a lease to a caller:
// they stop being overhead, so Used rises by as much. The peak is noted
// under the pool's lock, taken without touching virtual time: the tier
// lock the caller holds is what models the operation.
func (p *Pool) handOut(size uint64) {
	p.Res.Lock()
	defer p.Res.Unlock()
	p.cacheOverhead.Add(-int64(size))
	p.notePeak()
}

// coalesce merges v with its free neighbours of the same state.
func (p *Pool) coalesce(c *pmem.Ctx, v *VEH) {
	for {
		merged := false
		if k, left, ok := p.byAddr.Floor(v.Addr - 1); ok && left.End() == v.Addr && left.State == v.State {
			_ = k
			p.removeFree(left)
			p.removeFree(v)
			left.Size += v.Size
			p.insertFree(left, v.State, maxI64(left.LastFree, v.LastFree))
			p.retire(v)
			v = left
			p.coalesces++
			merged = true
			c.Charge(pmem.CatSearch, 30)
		}
		if _, right, ok := p.byAddr.Ceiling(v.End()); ok && right.Addr == v.End() && right.State == v.State {
			p.removeFree(right)
			p.removeFree(v)
			v.Size += right.Size
			p.insertFree(v, v.State, maxI64(v.LastFree, right.LastFree))
			p.retire(right)
			p.coalesces++
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
