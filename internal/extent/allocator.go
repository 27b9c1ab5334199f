package extent

import (
	"fmt"

	"nvalloc/internal/pagemap"
	"nvalloc/internal/pmem"
)

// tier is one place extents are carved from and released to: the global
// Pool, a shard pool or an arena's slab cache. carve, lookup, release and
// group run under the tier's lock.
type tier interface {
	lock(c *pmem.Ctx)
	unlock(c *pmem.Ctx)
	// carve: free -> carved (volatile).
	carve(c *pmem.Ctx, size uint64, alignTo pmem.PAddr, slab bool) (pmem.PAddr, error)
	// lookup returns the size and kind of the carved extent at addr.
	lookup(addr pmem.PAddr) (size uint64, slab, ok bool)
	// release: carved or tombstoned -> free (volatile).
	release(c *pmem.Ctx, addr pmem.PAddr) error
	// uncarve undoes the tier's last carve, of addr, whose record failed:
	// carved -> free, with the tier and the free lists as the carve found
	// them.
	uncarve(c *pmem.Ctx, addr pmem.PAddr) error
	// group returns the tier's one-address tombstone group holding addr.
	group(addr pmem.PAddr) []pmem.PAddr
}

// Tiers says what stands between callers and the global pool. The zero
// value is the degenerate construction: every request is served by the
// global pool under its Res, one critical section per verb.
type Tiers struct {
	// Caches is the number of arena slab caches (one per arena).
	Caches int
	// SlabSize is the size of the extents the slab caches hold.
	SlabSize uint64
	// Pools is the number of shard pools.
	Pools int
}

// Allocator is the large allocator's front door: the four verbs of an
// extent's life — Carve, Record, Tombstone, Release — and the compositions
// Alloc, Free and FreeBatch. It routes each call to the tier that serves it
// and takes that tier's lock, so callers hold none. Requests name the arena
// they come from (it selects the slab cache and the shard pool) and whether
// the extent is a slab's. Lock order: arena, slab cache, shard pool, global
// pool, bookkeeper.
type Allocator struct {
	pool   *Pool
	caches []*slabCache // per arena; none in the degenerate construction
	shards []*shard     // none in the degenerate construction
	// leases routes an address inside a lease to the lease (and its shard)
	// without any lock.
	leases *pagemap.Map[lease]
}

// New creates a large allocator over a fresh heap region.
func New(dev pmem.Dev, book Bookkeeper, cfg Config, t Tiers) *Allocator {
	c := dev.NewCtx()
	c.PersistU64(pmem.CatMeta, cfg.BreakPtr, uint64(cfg.HeapBase))
	c.Merge()
	return newAllocator(newPool(dev, book, cfg), t)
}

func newAllocator(p *Pool, t Tiers) *Allocator {
	a := &Allocator{pool: p, leases: pagemap.New[lease](p.dev.Size(), LeaseAlign)}
	for i := 0; i < t.Caches; i++ {
		a.caches = append(a.caches, &slabCache{pool: p, size: t.SlabSize, batch: minSlabBatch})
	}
	for i := 0; i < t.Pools; i++ {
		a.shards = append(a.shards, &shard{a: a, allocated: make(map[pmem.PAddr]uint64)})
	}
	return a
}

// Global returns the global pool, for a caller that models its own locking
// by holding Pool.Res across sections of its own.
func (a *Allocator) Global() *Pool { return a.pool }

// slabTier returns the tier that serves arena's slab extents.
func (a *Allocator) slabTier(arena int) tier {
	if len(a.caches) == 0 {
		return a.pool
	}
	return a.caches[arena]
}

func under(c *pmem.Ctx, t tier, op func(tier) (pmem.PAddr, error)) (pmem.PAddr, error) {
	t.lock(c)
	defer t.unlock(c)
	return op(t)
}

// serve runs op on the tier that serves a request from arena, under its
// lock: the arena's slab tier for a slab extent, the arena's shard pool for
// up to MaxShardAlloc bytes, the global pool otherwise. A tier that cannot
// serve because the heap is nearly full gets the space parked in sibling
// caches flushed back to the global pool and a second try there.
func (a *Allocator) serve(c *pmem.Ctx, arena int, size uint64, slab bool, op func(tier) (pmem.PAddr, error)) (pmem.PAddr, error) {
	if slab {
		t := a.slabTier(arena)
		addr, err := under(c, t, op)
		if err != nil && a.flushCaches(c, arena) {
			addr, err = under(c, t, op)
		}
		return addr, err
	}
	if n := len(a.shards); n > 0 && size <= MaxShardAlloc {
		if addr, err := under(c, a.shards[arena%n], op); err == nil {
			return addr, nil
		}
		a.flushCaches(c, -1)
	}
	return under(c, a.pool, op)
}

// flushCaches returns every arena's cached slab extents but except's to the
// global pool and reports whether there were any. The caller holds no tier
// lock.
func (a *Allocator) flushCaches(c *pmem.Ctx, except int) (flushed bool) {
	for i, sc := range a.caches {
		if i != except && sc.flush(c) {
			flushed = true
		}
	}
	return flushed
}

// holder returns, locked, the tier that holds the carved extent at addr:
// arena's slab tier for a slab extent, else the shard pool whose lease
// contains addr, else the global pool (which also holds what shard pools
// recorded before a crash: those are rebuilt as ordinary extents).
func (a *Allocator) holder(c *pmem.Ctx, arena int, addr pmem.PAddr, slab bool) tier {
	if slab {
		t := a.slabTier(arena)
		t.lock(c)
		return t
	}
	for l := a.leases.Lookup(addr); l != nil; l = a.leases.Lookup(addr) {
		l.shard.lock(c)
		// The lease may have been dropped, or leased again elsewhere,
		// between the lock-free lookup and the acquire.
		if a.leases.Lookup(addr) == l {
			return l.shard
		}
		l.shard.unlock(c)
	}
	a.pool.lock(c)
	return a.pool
}

// Carve takes an extent off the free lists without persisting anything
// (free -> carved): it exists in this process only, and a crash returns its
// space. It ends in Record or Release.
func (a *Allocator) Carve(c *pmem.Ctx, arena int, size uint64, slab bool) (pmem.PAddr, error) {
	var alignTo pmem.PAddr
	if slab {
		alignTo = pmem.PAddr(size)
	}
	return a.serve(c, arena, size, slab, func(t tier) (pmem.PAddr, error) { return t.carve(c, size, alignTo, slab) })
}

// Alloc is Carve + Record for an extent that needs no initialization in
// between; a carve that cannot be recorded is undone (Uncarve).
func (a *Allocator) Alloc(c *pmem.Ctx, arena int, size uint64) (pmem.PAddr, error) {
	return a.serve(c, arena, size, false, func(t tier) (pmem.PAddr, error) { return a.pool.alloc(c, t, size, 0, false) })
}

// Record persists the bookkeeping record of a carved extent (carved ->
// recorded), fenced. The caller has made the extent's own initialization
// persistent first.
func (a *Allocator) Record(c *pmem.Ctx, arena int, addr pmem.PAddr, slab bool) error {
	if l := a.leases.Lookup(addr); l != nil && !slab {
		// A carved sub-allocation pins its lease and the record needs only
		// its size, so the shard is not held across the append.
		if size, ok := l.shard.sizeOf(addr); ok {
			return a.pool.record(c, addr, size, false)
		}
	} else {
		var t tier = a.pool
		if slab {
			t = a.slabTier(arena)
		}
		t.lock(c)
		defer t.unlock(c)
		if size, slab, ok := t.lookup(addr); ok {
			return a.pool.record(c, addr, size, slab)
		}
	}
	return fmt.Errorf("extent: record of %w %#x", ErrUnknown, addr)
}

// Tombstone persists that the recorded extent in the one-address group is
// dead (recorded -> tombstoned), fenced, and leaves its space with the
// caller, who hands it to Release — after whatever must be durable before
// the space can be reused. The caller owns the group because it escapes
// into the bookkeeper: a literal would be a heap allocation per call.
func (a *Allocator) Tombstone(c *pmem.Ctx, one []pmem.PAddr) error {
	_, err := a.pool.tombstone(c, one)
	return err
}

// Release returns an extent that has no live record to the free lists
// (carved or tombstoned -> free). It writes nothing persistent.
func (a *Allocator) Release(c *pmem.Ctx, arena int, addr pmem.PAddr, slab bool) error {
	t := a.holder(c, arena, addr, slab)
	defer t.unlock(c)
	return t.release(c, addr)
}

// Uncarve undoes the caller's last Carve, of addr, after its Record failed
// (carved -> free): the space goes back to the state the carve took it
// from, and a slab-cache refill or a lease the carve took goes back with
// it unless the tier served another call in between. It writes nothing
// persistent.
func (a *Allocator) Uncarve(c *pmem.Ctx, arena int, addr pmem.PAddr, slab bool) error {
	t := a.holder(c, arena, addr, slab)
	defer t.unlock(c)
	return t.uncarve(c, addr)
}

// Free is Tombstone + Release in one critical section of the tier that
// holds the extent. If the tombstone cannot be written the extent stays
// recorded and activated.
func (a *Allocator) Free(c *pmem.Ctx, arena int, addr pmem.PAddr, slab bool) error {
	t := a.holder(c, arena, addr, slab)
	defer t.unlock(c)
	return a.pool.free(c, t, addr)
}

// FreeBatch frees a group of global-pool extents with their tombstones
// persisted as one group: see Pool.freeBatch for what a crash or a failing
// bookkeeper leaves. Recovery sweeps use it, when the shard pools are empty.
func (a *Allocator) FreeBatch(c *pmem.Ctx, addrs []pmem.PAddr) error {
	a.pool.lock(c)
	defer a.pool.unlock(c)
	return a.pool.freeBatch(c, addrs)
}

// Live reports whether addr is the start of a live extent that is not a
// slab's or a lease, and its size. Like every accessor below it takes locks
// without touching virtual time: reading is not an allocator operation.
func (a *Allocator) Live(addr pmem.PAddr) (uint64, bool) {
	if l := a.leases.Lookup(addr); l != nil {
		return l.shard.sizeOf(addr)
	}
	a.pool.Res.Lock()
	defer a.pool.Res.Unlock()
	size, slab, ok := a.pool.lookup(addr)
	return size, ok && !slab
}

// Each calls fn for every extent Live reports, in no particular order.
func (a *Allocator) Each(fn func(addr pmem.PAddr, size uint64)) {
	p := a.pool
	p.Res.Lock()
	for addr, v := range p.activated {
		if !v.Slab {
			fn(addr, v.Size)
		}
	}
	for i, r := range p.recovered {
		if !p.indexed[i] && !r.Slab {
			fn(r.Addr, r.Size)
		}
	}
	p.Res.Unlock()
	for _, sh := range a.shards {
		sh.Res.Lock()
		for addr, size := range sh.allocated {
			fn(addr, size)
		}
		sh.Res.Unlock()
	}
}

// Indexed returns how many of the records Rebuild was handed have been
// given their entry so far: each one a free or a release needed.
func (a *Allocator) Indexed() int {
	a.pool.Res.Lock()
	defer a.pool.Res.Unlock()
	return len(a.pool.recovered) - a.pool.pending
}

// IndexAll gives every recovered record that has no entry yet its entry,
// uncharged: the state an eager rebuild leaves. Nothing in the allocator
// calls it; tests compare a heap indexed this way with one that indexes on
// first use.
func (a *Allocator) IndexAll() {
	p := a.pool
	p.Res.Lock()
	defer p.Res.Unlock()
	for i, r := range p.recovered {
		if !p.indexed[i] {
			p.indexed[i] = true
			p.activated[r.Addr] = &VEH{Addr: r.Addr, Size: r.Size, State: Activated, Slab: r.Slab, From: Reclaimed}
		}
	}
	p.pending = 0
}

// Used returns committed bytes: metadata in service, live extents and
// dirty (reclaimed) free extents; space parked idle in slab caches and
// shard leases is not counted.
func (a *Allocator) Used() uint64 {
	a.pool.Res.Lock()
	defer a.pool.Res.Unlock()
	return a.pool.used()
}

// Peak returns the high-water mark of Used.
func (a *Allocator) Peak() uint64 {
	a.pool.Res.Lock()
	defer a.pool.Res.Unlock()
	return a.pool.peak.Load()
}

// ResetPeak restarts peak tracking.
func (a *Allocator) ResetPeak() {
	a.pool.Res.Lock()
	defer a.pool.Res.Unlock()
	a.pool.peak.Store(a.pool.used())
}

// CommitMeta counts n more bytes of metadata into Used — a metadata region
// that went into service after the allocator was built (Config.MetaBytes)
// — and notes the peak. It takes no lock and touches no virtual time, so
// a bookkeeper may call it from inside any verb.
func (a *Allocator) CommitMeta(n uint64) { a.pool.commitMeta(n) }

// LeaseOverhead returns the bytes of carved-but-idle space parked in slab
// caches and shard-pool leases (the amount Used leaves out).
func (a *Allocator) LeaseOverhead() uint64 {
	return uint64(max(a.pool.cacheOverhead.Load(), 0))
}

// FreeBytes returns the global pool's free space below the break by what
// backs it: dirty, the reclaimed extents, whose pages are backed and
// counted in Used; and retained, the retained and released extents, which
// hold none (growth no carve has reached, and space whose pages decay gave
// back).
func (a *Allocator) FreeBytes() (dirty, retained uint64) {
	a.pool.Res.Lock()
	defer a.pool.Res.Unlock()
	return a.pool.reclaimedBytes.Load(), a.pool.retainedBytes + a.pool.releasedBytes
}

// Stats returns the global pool's split, coalesce and heap-growth counts.
func (a *Allocator) Stats() (splits, coalesces, grows uint64) {
	return a.pool.splits, a.pool.coalesces, a.pool.grows
}

// CacheStats sums the slab caches' counters: cache hits, batched refills,
// overflow and back-pressure flushes, and extents carved by refills.
func (a *Allocator) CacheStats() (hits, refills, flushes, carved uint64) {
	for _, sc := range a.caches {
		sc.mu.Lock()
		hits, refills, flushes, carved = hits+sc.hits, refills+sc.refills, flushes+sc.flushes, carved+sc.carved
		sc.mu.Unlock()
	}
	return
}

// Locks returns the resources the allocator serializes on, for contention
// reports: the global pool's, the bookkeeper's (nil when the bookkeeper
// locks itself) and each shard pool's.
func (a *Allocator) Locks() (global, book *pmem.Resource, shards []*pmem.Resource) {
	if !a.pool.bookSelfLocked {
		book = &a.pool.bookRes
	}
	for _, sh := range a.shards {
		shards = append(shards, &sh.Res)
	}
	return &a.pool.Res, book, shards
}
