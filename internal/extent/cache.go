package extent

import (
	"fmt"
	"sync"

	"nvalloc/internal/pmem"
)

// Slab-cache batch bounds: a refill carves between minSlabBatch and
// maxSlabBatch extents per global-lock acquisition, adapting to demand
// (consecutive refills grow the batch, an overflow flush resets it).
const (
	minSlabBatch = 4
	maxSlabBatch = 8
)

// slabCache is an arena-local cache of equally sized extents (one slab
// footprint each): the tier that serves an arena's slab extents. It exists
// to break the hot path's last global serialization point: instead of
// taking the global pool's Res three times per slab (carve, record, free),
// the arena refills the cache in batches — one Res critical section carves
// minSlabBatch..maxSlabBatch extents — and the per-slab record and
// tombstone run under the book resource alone.
//
// Invariant: every extent in the cache is carved and idle (Pool.lease) —
// activated, unrecorded. After a crash, Rebuild therefore sees the space
// as free: a cached extent can never resurrect stale contents, and the
// crash-ordering argument of Pool.carve (header formatted before record)
// carries over unchanged to the batched path.
type slabCache struct {
	pool *Pool
	size uint64

	mu     sync.Mutex   // the tier lock: arena-local, so not modelled in virtual time
	free   []pmem.PAddr // LIFO: most recently returned extent reused first
	batch  int
	streak int // consecutive refills since the last flush
	// refilled is the extent the last carve popped from the batch it
	// leased: its uncarve gives the whole batch back, so the pool is left
	// as the carve found it. Any other call on the cache clears it.
	refilled pmem.PAddr
	oneAddr

	hits, refills, flushes, carved uint64
}

func (sc *slabCache) lock(*pmem.Ctx)   { sc.mu.Lock() }
func (sc *slabCache) unlock(*pmem.Ctx) { sc.mu.Unlock() }

// lookup: every extent this tier hands out has its size and is a slab's.
func (sc *slabCache) lookup(pmem.PAddr) (size uint64, slab, ok bool) { return sc.size, true, true }

// carve pops a cached extent, refilling the cache from the global pool
// when empty. It fails only when the heap cannot supply a single extent.
func (sc *slabCache) carve(c *pmem.Ctx, _ uint64, _ pmem.PAddr, _ bool) (pmem.PAddr, error) {
	refill := len(sc.free) == 0
	sc.refilled = pmem.Null
	if refill {
		sc.free = sc.pool.lease(c, sc.size, pmem.PAddr(sc.size), sc.batch, sc.free)
		sc.refills++
		sc.carved += uint64(len(sc.free))
		// Demand adaptation: back-to-back refills (no flush in between) mean
		// the arena is churning through slabs — double the batch up to the
		// cap so the global lock is touched even less often.
		if sc.streak++; sc.streak > 1 && sc.batch < maxSlabBatch {
			sc.batch = min(2*sc.batch, maxSlabBatch)
		}
		if len(sc.free) == 0 {
			return pmem.Null, fmt.Errorf("extent: %w: no %d-byte slab extent", ErrNoSpace, sc.size)
		}
	} else {
		sc.hits++
	}
	addr := sc.free[len(sc.free)-1]
	sc.free = sc.free[:len(sc.free)-1]
	if refill {
		sc.refilled = addr
	}
	// Leaving the cache to become a live slab: no longer overhead.
	sc.pool.handOut(sc.size)
	return addr, nil
}

// uncarve takes back an extent whose record failed. One that came from
// the cache goes back into it; one whose carve refilled the cache takes
// the rest of that batch with it, back to the free state each was leased
// from.
func (sc *slabCache) uncarve(c *pmem.Ctx, addr pmem.PAddr) error {
	if addr != sc.refilled {
		return sc.release(c, addr)
	}
	sc.refilled = pmem.Null
	sc.free = append(sc.free, addr)
	sc.pool.cacheOverhead.Add(int64(sc.size))
	sc.pool.reclaim(c, sc.free, true)
	sc.free = sc.free[:0]
	return nil
}

// release takes an extent back into the cache. When the cache overflows
// its working set, the oldest extents are handed back to the global pool
// in one critical section.
func (sc *slabCache) release(c *pmem.Ctx, addr pmem.PAddr) error {
	sc.refilled = pmem.Null
	sc.free = append(sc.free, addr)
	// Back in the cache: idle again. (Extents dropped by the overflow
	// flush are un-counted inside reclaim.)
	sc.pool.cacheOverhead.Add(int64(sc.size))
	if len(sc.free) > 2*sc.batch {
		sc.drop(c, len(sc.free)-sc.batch)
	}
	return nil
}

// drop hands the n oldest cached extents back to the global pool and
// restarts the demand adaptation.
func (sc *slabCache) drop(c *pmem.Ctx, n int) {
	sc.refilled = pmem.Null
	sc.pool.reclaim(c, sc.free[:n], false)
	sc.free = append(sc.free[:0], sc.free[n:]...)
	sc.flushes++
	sc.streak = 0
	sc.batch = minSlabBatch
}

// flush returns every cached extent to the global pool (exhaustion
// back-pressure) and reports whether there was any.
func (sc *slabCache) flush(c *pmem.Ctx) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.free) == 0 {
		return false
	}
	sc.drop(c, len(sc.free))
	return true
}
