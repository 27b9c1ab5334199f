package extent

import (
	"fmt"
	"sort"

	"nvalloc/internal/pmem"
)

// Shard-pool geometry. Leases are sized and aligned so that (a) any
// address inside a lease resolves to it through a fixed-granularity page
// map lookup, and (b) a lease fits the data region of a bookkept chunk
// even for the in-place bookkeeper, whose 8 KiB header table makes
// ChunkSize-aligned extents impossible.
const (
	// LeaseSize is the extent quantum a shard pool leases from the global
	// pool.
	LeaseSize = 2 << 20
	// LeaseAlign is the lease alignment and the page-map granularity used
	// to route a free back to its shard.
	LeaseAlign = 64 << 10
	// MaxShardAlloc is the largest request served from a shard pool;
	// bigger extents fall through to the global pool.
	MaxShardAlloc = 512 << 10
)

// run is a free range inside a lease, byte offsets relative to the lease
// base. Runs are kept sorted by offset and coalesced.
type run struct {
	off uint32
	len uint32
}

// lease is one LeaseSize extent a shard carved from the global pool. Like
// cached slab extents, a lease is activated and unrecorded (Slab set on its
// VEH): after a crash the lease itself dissolves — its recorded
// sub-allocations are rebuilt as ordinary global extents and the unrecorded
// remainder is free.
type lease struct {
	shard *shard
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

// shard is one address-partitioned large-allocation pool with its own
// lock: the tier that serves requests up to MaxShardAlloc. Threads hash to
// a shard by arena index, so at most a few arenas share each pool instead
// of every thread contending on the global pool's Res. The Allocator holds
// the shard's Res around carve, lookup and release.
type shard struct {
	held

	a         *Allocator
	leases    []*lease
	allocated map[pmem.PAddr]uint64 // live sub-allocation sizes
	// added is the lease the last carve had to take: the uncarve of that
	// carve gives it back, so the pool is left as the carve found it. Any
	// other call on the shard clears it.
	added *lease

	leasesTaken, leasesReturned uint64
}

// carve takes size bytes from the first fitting free run, leasing more
// space from the global pool when the shard runs dry.
func (sh *shard) carve(c *pmem.Ctx, size uint64, _ pmem.PAddr, _ bool) (pmem.PAddr, error) {
	size = (size + PageSize - 1) &^ (PageSize - 1)
	sh.added = nil
	addr, ok := sh.fit(c, size)
	if !ok {
		if err := sh.addLease(c); err != nil {
			return pmem.Null, err
		}
		sh.added = sh.leases[len(sh.leases)-1]
		if addr, ok = sh.fit(c, size); !ok {
			return pmem.Null, fmt.Errorf("extent: %w: a fresh lease cannot hold %d bytes", ErrNoSpace, size)
		}
	}
	sh.allocated[addr] = size
	// The carved bytes are the caller's now; the rest of the lease stays
	// counted as overhead.
	sh.a.pool.handOut(size)
	return addr, nil
}

// fit finds the first fitting free run, first lease first (address-ordered
// within a lease by construction).
func (sh *shard) fit(c *pmem.Ctx, size uint64) (pmem.PAddr, bool) {
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

func (sh *shard) lookup(addr pmem.PAddr) (size uint64, slab, ok bool) {
	size, ok = sh.allocated[addr]
	return size, false, ok
}

// sizeOf is lookup for a caller that does not hold Res: it takes the lock
// alone, so asking does not perturb virtual time.
func (sh *shard) sizeOf(addr pmem.PAddr) (uint64, bool) {
	sh.Res.Lock()
	defer sh.Res.Unlock()
	size, ok := sh.allocated[addr]
	return size, ok
}

// release returns a sub-allocation's bytes to its lease, and the lease to
// the global pool once it is empty and a spare remains.
func (sh *shard) release(c *pmem.Ctx, addr pmem.PAddr) error {
	sh.added = nil
	return sh.put(c, addr, nil)
}

// uncarve takes back a sub-allocation whose record failed, and with it the
// lease its carve had to take, back to the free state it was leased from.
func (sh *shard) uncarve(c *pmem.Ctx, addr pmem.PAddr) error {
	added := sh.added
	sh.added = nil
	return sh.put(c, addr, added)
}

// put returns a sub-allocation's bytes to its lease, and the lease to the
// global pool once it is empty and either is added (in the state it was
// leased from) or a spare remains.
func (sh *shard) put(c *pmem.Ctx, addr pmem.PAddr, added *lease) error {
	size, ok := sh.allocated[addr]
	if !ok {
		return fmt.Errorf("extent: shard free of %w %#x", ErrUnknown, addr)
	}
	delete(sh.allocated, addr)
	l := sh.a.leases.Lookup(addr)
	l.insert(uint32(addr-l.base), uint32(size))
	l.live--
	sh.a.pool.cacheOverhead.Add(int64(size))
	if l.live == 0 && l.empty() && (l == added || sh.spareEmptyLease(l)) {
		sh.dropLease(c, l, l == added)
	}
	return nil
}

// addLease takes one LeaseSize extent from the global pool and registers
// its granules in the lease page map.
func (sh *shard) addLease(c *pmem.Ctx) error {
	var one [1]pmem.PAddr
	got := sh.a.pool.lease(c, LeaseSize, LeaseAlign, 1, one[:0])
	if len(got) == 0 {
		return fmt.Errorf("extent: %w: no %d-byte lease", ErrNoSpace, LeaseSize)
	}
	l := &lease{shard: sh, base: got[0], free: []run{{0, LeaseSize}}}
	sh.leases = append(sh.leases, l)
	for off := pmem.PAddr(0); off < LeaseSize; off += LeaseAlign {
		sh.a.leases.Store(l.base+off, l)
	}
	sh.leasesTaken++
	return nil
}

// dropLease unregisters an empty lease and returns its extent to the
// global pool: reclaimed, or with restore in the state it was leased from.
func (sh *shard) dropLease(c *pmem.Ctx, l *lease, restore bool) {
	for i, x := range sh.leases {
		if x == l {
			sh.leases = append(sh.leases[:i], sh.leases[i+1:]...)
			break
		}
	}
	for off := pmem.PAddr(0); off < LeaseSize; off += LeaseAlign {
		sh.a.leases.Delete(l.base + off)
	}
	sh.a.pool.reclaim(c, []pmem.PAddr{l.base}, restore)
	sh.leasesReturned++
}

// spareEmptyLease reports whether another fully-free lease besides l
// exists in the shard — the keep-one-spare hysteresis that stops a
// malloc/free cycle at a lease boundary from thrashing the global lock.
func (sh *shard) spareEmptyLease(l *lease) bool {
	for _, x := range sh.leases {
		if x != l && x.live == 0 && x.empty() {
			return true
		}
	}
	return false
}
