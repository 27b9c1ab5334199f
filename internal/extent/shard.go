package extent

import (
	"fmt"
	"sort"

	"nvalloc/internal/pagemap"
	"nvalloc/internal/pmem"
)

// Shard-pool geometry. Leases are sized and aligned so that (a) any
// address inside a lease resolves to it through a fixed-granularity page
// map lookup, and (b) a lease fits the data region of a bookkept chunk
// even for the in-place bookkeeper, whose 8 KiB header table makes
// ChunkSize-aligned extents impossible.
const (
	// LeaseSize is the extent quantum a shard pool leases from the global
	// allocator.
	LeaseSize = 2 << 20
	// LeaseAlign is the lease alignment and the page-map granularity used
	// to route a free back to its shard.
	LeaseAlign = 64 << 10
	// MaxShardAlloc is the largest request served from a shard pool;
	// bigger extents fall through to the global allocator.
	MaxShardAlloc = 512 << 10
)

// run is a free range inside a lease, byte offsets relative to the lease
// base. Runs are kept sorted by offset and coalesced.
type run struct {
	off uint32
	len uint32
}

// lease is one LeaseSize extent a shard carved from the global
// allocator. Like cached slab extents, a lease is activated and
// unrecorded (Slab set on its VEH): after a crash the lease itself
// dissolves — its recorded sub-allocations are rebuilt as ordinary
// global extents and the unrecorded remainder is free.
type lease struct {
	shard *Shard
	base  pmem.PAddr
	free  []run
	live  int
}

func (l *lease) empty() bool {
	return len(l.free) == 1 && l.free[0].off == 0 && l.free[0].len == LeaseSize
}

// insert returns [off,off+n) to the lease's free runs, coalescing with
// adjacent runs.
func (l *lease) insert(off, n uint32) {
	i := sort.Search(len(l.free), func(i int) bool { return l.free[i].off >= off })
	l.free = append(l.free, run{})
	copy(l.free[i+1:], l.free[i:])
	l.free[i] = run{off, n}
	// Coalesce with the successor, then the predecessor.
	if i+1 < len(l.free) && l.free[i].off+l.free[i].len == l.free[i+1].off {
		l.free[i].len += l.free[i+1].len
		l.free = append(l.free[:i+1], l.free[i+2:]...)
	}
	if i > 0 && l.free[i-1].off+l.free[i-1].len == l.free[i].off {
		l.free[i-1].len += l.free[i].len
		l.free = append(l.free[:i], l.free[i+1:]...)
	}
}

// Shard is one address-partitioned large-allocation pool with its own
// lock. Threads hash to a shard by arena index, so at most a few arenas
// share each pool instead of every thread contending on Allocator.Res.
type Shard struct {
	// Res serializes the shard and models its lock in virtual time.
	Res pmem.Resource

	owner     *Shards
	id        int
	leases    []*lease
	allocated map[pmem.PAddr]uint64 // live sub-allocation sizes
	freeOne   [1]pmem.PAddr         // Free's one-address tombstone group (see Allocator.freeOne)

	allocs, frees, leasesTaken, leasesReturned uint64
}

// Shards is the set of shard pools plus the lease page map that routes
// an address back to its owning lease (and shard) without any lock.
type Shards struct {
	a      *Allocator
	byAddr *pagemap.Map[lease]
	pools  []*Shard
}

// NewShards creates n shard pools over the global allocator a. devSize
// bounds the lease page map.
func NewShards(a *Allocator, devSize uint64, n int) *Shards {
	s := &Shards{
		a:      a,
		byAddr: pagemap.New[lease](devSize, LeaseAlign),
	}
	for i := 0; i < n; i++ {
		s.pools = append(s.pools, &Shard{owner: s, id: i, allocated: make(map[pmem.PAddr]uint64)})
	}
	return s
}

// Pool returns the shard for an arena index.
func (s *Shards) Pool(arenaIdx int) *Shard {
	return s.pools[arenaIdx%len(s.pools)]
}

// NumPools returns the number of shard pools.
func (s *Shards) NumPools() int { return len(s.pools) }

// Alloc serves a large allocation of size bytes (size must be at most
// MaxShardAlloc) from the shard, leasing more space from the global
// allocator when the pool runs dry. The sub-allocation's record is
// persisted before Alloc returns, so an acknowledged allocation survives
// a crash even though the lease around it does not.
func (sh *Shard) Alloc(c *pmem.Ctx, size uint64) (pmem.PAddr, error) {
	return sh.alloc(c, size, true)
}

// Reserve is Alloc without the record: the sub-allocation exists in this
// process only, and a crash returns its space. The caller makes it durable
// with Shards.Record or hands it back with Shards.Release.
func (sh *Shard) Reserve(c *pmem.Ctx, size uint64) (pmem.PAddr, error) {
	return sh.alloc(c, size, false)
}

func (sh *Shard) alloc(c *pmem.Ctx, size uint64, record bool) (pmem.PAddr, error) {
	if size == 0 {
		return pmem.Null, fmt.Errorf("extent: zero-size allocation")
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	if size > MaxShardAlloc {
		return pmem.Null, fmt.Errorf("extent: %d bytes exceeds shard limit %d", size, MaxShardAlloc)
	}
	sh.Res.Acquire(c)
	addr, ok := sh.carve(c, size)
	if !ok {
		if err := sh.addLease(c); err != nil {
			sh.Res.Release(c)
			return pmem.Null, err
		}
		addr, ok = sh.carve(c, size)
		if !ok {
			sh.Res.Release(c)
			return pmem.Null, fmt.Errorf("extent: fresh lease cannot hold %d bytes", size)
		}
	}
	sh.allocated[addr] = size
	if record {
		if err := sh.owner.a.RecordExtent(c, addr, size, false); err != nil {
			// Bookkeeping exhausted: undo the (volatile) carve and fail.
			delete(sh.allocated, addr)
			sh.uncarve(addr, size)
			sh.Res.Release(c)
			return pmem.Null, err
		}
	}
	// The carved bytes hold live data now; the rest of the lease stays
	// counted as overhead.
	sh.owner.a.cacheOverhead.Add(-int64(size))
	sh.allocs++
	sh.Res.Release(c)
	return addr, nil
}

// carve takes size bytes from the first fitting free run, first lease
// first (address-ordered within a lease by construction). Caller holds
// Res.
func (sh *Shard) carve(c *pmem.Ctx, size uint64) (pmem.PAddr, bool) {
	for _, l := range sh.leases {
		c.Charge(pmem.CatSearch, 20)
		for i := range l.free {
			r := &l.free[i]
			if uint64(r.len) < size {
				c.Charge(pmem.CatSearch, 5)
				continue
			}
			addr := l.base + pmem.PAddr(r.off)
			r.off += uint32(size)
			r.len -= uint32(size)
			if r.len == 0 {
				l.free = append(l.free[:i], l.free[i+1:]...)
			}
			l.live++
			return addr, true
		}
	}
	return pmem.Null, false
}

// uncarve reverses a carve that could not be recorded. Caller holds Res.
func (sh *Shard) uncarve(addr pmem.PAddr, size uint64) {
	if l := sh.leaseOf(addr); l != nil {
		l.insert(uint32(addr-l.base), uint32(size))
		l.live--
	}
}

func (sh *Shard) leaseOf(addr pmem.PAddr) *lease {
	return sh.owner.byAddr.Lookup(addr)
}

// addLease takes one LeaseSize extent from the global allocator and
// registers its granules in the lease page map. Caller holds Res.
func (sh *Shard) addLease(c *pmem.Ctx) error {
	base, err := sh.owner.a.AllocLease(c, LeaseSize, LeaseAlign)
	if err != nil {
		return err
	}
	l := &lease{shard: sh, base: base, free: []run{{0, LeaseSize}}}
	sh.leases = append(sh.leases, l)
	for off := pmem.PAddr(0); off < LeaseSize; off += LeaseAlign {
		sh.owner.byAddr.Store(base+off, l)
	}
	sh.leasesTaken++
	return nil
}

// dropLease unregisters an empty lease and returns its extent to the
// global allocator. Caller holds Res.
func (sh *Shard) dropLease(c *pmem.Ctx, l *lease) {
	for i, x := range sh.leases {
		if x == l {
			sh.leases = append(sh.leases[:i], sh.leases[i+1:]...)
			break
		}
	}
	for off := pmem.PAddr(0); off < LeaseSize; off += LeaseAlign {
		sh.owner.byAddr.Delete(l.base + off)
	}
	sh.owner.a.ReleaseUnrecordedBatch(c, []pmem.PAddr{l.base})
	sh.leasesReturned++
}

// Free returns a shard-managed sub-allocation. handled is false when the
// address is not inside any lease (the caller falls back to the global
// allocator). The tombstone is persisted before the space becomes
// reusable, so a crash can never observe a new record overlapping the
// old one.
func (s *Shards) Free(c *pmem.Ctx, addr pmem.PAddr) (handled bool, err error) {
	return s.free(c, addr, true)
}

// Release is Free for a sub-allocation that has no live record: one that
// was reserved and never recorded, or whose tombstone the caller has
// already persisted (TombstoneExtent).
func (s *Shards) Release(c *pmem.Ctx, addr pmem.PAddr) (handled bool, err error) {
	return s.free(c, addr, false)
}

func (s *Shards) free(c *pmem.Ctx, addr pmem.PAddr, tombstone bool) (handled bool, err error) {
	for {
		l := s.byAddr.Lookup(addr)
		if l == nil {
			return false, nil
		}
		sh := l.shard
		sh.Res.Acquire(c)
		// The lease may have been dropped (or even re-leased elsewhere)
		// between the lock-free lookup and the acquire; revalidate.
		if s.byAddr.Lookup(addr) != l {
			sh.Res.Release(c)
			continue
		}
		size, ok := sh.allocated[addr]
		if !ok {
			sh.Res.Release(c)
			return true, fmt.Errorf("extent: shard free of unknown extent %#x", addr)
		}
		if tombstone {
			sh.freeOne[0] = addr
			if err := s.a.Tombstone(c, sh.freeOne[:]); err != nil {
				sh.Res.Release(c)
				return true, err
			}
		}
		delete(sh.allocated, addr)
		l.insert(uint32(addr-l.base), uint32(size))
		l.live--
		s.a.cacheOverhead.Add(int64(size))
		sh.frees++
		if l.live == 0 && l.empty() && sh.spareEmptyLease(l) {
			sh.dropLease(c, l)
		}
		sh.Res.Release(c)
		return true, nil
	}
}

// Record persists the bookkeeping record of a sub-allocation made with
// Reserve. handled is false when addr is not inside any lease.
func (s *Shards) Record(c *pmem.Ctx, addr pmem.PAddr) (handled bool, err error) {
	l := s.byAddr.Lookup(addr)
	if l == nil {
		return false, nil
	}
	sh := l.shard
	sh.Res.Lock()
	size, ok := sh.allocated[addr]
	sh.Res.Unlock()
	if !ok {
		return true, fmt.Errorf("extent: shard record of unknown extent %#x", addr)
	}
	return true, s.a.RecordExtent(c, addr, size, false)
}

// spareEmptyLease reports whether another fully-free lease besides l
// exists in the shard — the keep-one-spare hysteresis that stops a
// malloc/free cycle at a lease boundary from thrashing the global lock.
func (sh *Shard) spareEmptyLease(l *lease) bool {
	for _, x := range sh.leases {
		if x != l && x.live == 0 && x.empty() {
			return true
		}
	}
	return false
}

// Resolves reports whether addr is the start of a live shard
// sub-allocation.
func (s *Shards) Resolves(addr pmem.PAddr) bool {
	l := s.byAddr.Lookup(addr)
	if l == nil {
		return false
	}
	sh := l.shard
	sh.Res.Lock()
	_, ok := sh.allocated[addr]
	sh.Res.Unlock()
	return ok
}

// Objects calls fn for every live shard sub-allocation (unordered across
// shards, address-ordered within one). It uses the lock-only resource
// path so walking objects does not perturb virtual time.
func (s *Shards) Objects(fn func(addr pmem.PAddr, size uint64) bool) bool {
	for _, sh := range s.pools {
		sh.Res.Lock()
		addrs := make([]pmem.PAddr, 0, len(sh.allocated))
		for a := range sh.allocated {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		sizes := make([]uint64, len(addrs))
		for i, a := range addrs {
			sizes[i] = sh.allocated[a]
		}
		sh.Res.Unlock()
		for i, a := range addrs {
			if !fn(a, sizes[i]) {
				return false
			}
		}
	}
	return true
}

// Stats returns per-shard (allocs, frees, leases taken, leases
// returned) for the contention report.
func (sh *Shard) Stats() (allocs, frees, taken, returned uint64) {
	sh.Res.Lock()
	defer sh.Res.Unlock()
	return sh.allocs, sh.frees, sh.leasesTaken, sh.leasesReturned
}

// LiveBytes returns the bytes of live sub-allocations in the shard.
func (sh *Shard) LiveBytes() uint64 {
	sh.Res.Lock()
	defer sh.Res.Unlock()
	var n uint64
	for _, sz := range sh.allocated {
		n += sz
	}
	return n
}
