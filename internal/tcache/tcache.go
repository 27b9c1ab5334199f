// Package tcache implements NVAlloc's thread-local cache. Built with one
// stripe it is a single LIFO list, which is what a heap uses whenever it
// does not flush a bitmap line per allocation (NVAlloc-LOG, NVAlloc-GC).
// Built with more it has the interleaved layout of Section 5.1: per size
// class the cache is split into one sub-tcache per bit stripe, and a
// cursor round-robins across sub-tcaches so that consecutive allocations
// come from blocks whose bitmap bits live in different cache lines
// (NVAlloc-IC, whose per-operation flush is that line).
package tcache

// Block is a cached block reference: its slab-local logical index plus an
// opaque slab handle managed by the caller (the arena layer stores the
// *slab.Slab there).
type Block struct {
	Slab any
	Idx  int
}

// Cache is one thread's cache for one size class.
type Cache struct {
	subs   [][]Block // one LIFO stack per stripe
	cursor int
	count  int
	cap    int
}

// New creates a cache with the given number of sub-tcaches (stripes; 1 is
// the single LIFO) and total block capacity.
func New(stripes, capacity int) *Cache {
	if stripes < 1 {
		stripes = 1
	}
	if capacity < stripes {
		capacity = stripes
	}
	return &Cache{subs: make([][]Block, stripes), cap: capacity}
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.count }

// Cap returns the cache capacity.
func (c *Cache) Cap() int { return c.cap }

// Full reports whether a freed block should bypass the cache.
func (c *Cache) Full() bool { return c.count >= c.cap }

// Empty reports whether the cache needs a refill.
func (c *Cache) Empty() bool { return c.count == 0 }

// Push caches a block under the sub-tcache of its stripe (LIFO).
func (c *Cache) Push(stripe int, b Block) {
	s := 0
	if len(c.subs) > 1 {
		s = stripe % len(c.subs)
	}
	c.subs[s] = append(c.subs[s], b)
	c.count++
}

// Pop removes a block, rotating the cursor across sub-tcaches so
// consecutive allocations use bits in different cache lines. If the
// cursor's sub-tcache is empty the next non-empty one is used.
func (c *Cache) Pop() (Block, bool) {
	if c.count == 0 {
		return Block{}, false
	}
	n := len(c.subs)
	if n == 1 {
		// The single LIFO: no cursor, no division.
		l := len(c.subs[0]) - 1
		b := c.subs[0][l]
		c.subs[0] = c.subs[0][:l]
		c.count--
		return b, true
	}
	for i := 0; i < n; i++ {
		s := (c.cursor + i) % n
		if l := len(c.subs[s]); l > 0 {
			b := c.subs[s][l-1]
			c.subs[s] = c.subs[s][:l-1]
			c.count--
			c.cursor = (s + 1) % n
			return b, true
		}
	}
	return Block{}, false
}

// Drain removes and returns every cached block (used on thread exit to
// return blocks to their slabs).
func (c *Cache) Drain() []Block {
	out := make([]Block, 0, c.count)
	for s := range c.subs {
		out = append(out, c.subs[s]...)
		c.subs[s] = c.subs[s][:0]
	}
	c.count = 0
	return out
}

// Stripes returns the number of sub-tcaches.
func (c *Cache) Stripes() int { return len(c.subs) }

// MagCap is the fixed magazine capacity. A magazine moves this many
// blocks between a thread cache and a per-arena depot in one critical
// section, so cache overflow and refill cost one arena acquisition per
// MagCap blocks instead of one per block.
const MagCap = 16

// Magazine is a fixed-size batch of cached blocks, swapped whole between
// thread caches and arena depots (the magazine/depot design of classic
// multiprocessor allocators). Every block in a magazine is volatile-
// reserved in its slab: its persistent bitmap bit is already clear, so
// magazine transfers touch no persistent state and need no WAL entry or
// fence — a crash simply loses the reservations, which recovery already
// treats as free.
type Magazine struct {
	Blocks [MagCap]Block
	N      int
	// Pad to a cache-line multiple (392 → 448 bytes): magazines are
	// individually heap-allocated and swap between threads through arena
	// depots, so a trailing partial line would share a cache line with
	// whatever neighbouring allocation follows it — real-concurrency mode
	// turns that into measurable false sharing.
	_ [56]byte
}

// PopMagazine moves up to k blocks (capped at MagCap) out of the cache
// into m, using the same cursor rotation as Pop, and returns how many it
// moved. m's previous contents are discarded.
func (c *Cache) PopMagazine(m *Magazine, k int) int {
	if k > MagCap {
		k = MagCap
	}
	m.N = 0
	for m.N < k {
		b, ok := c.Pop()
		if !ok {
			break
		}
		m.Blocks[m.N] = b
		m.N++
	}
	return m.N
}

// RemoteFree is one buffered cross-arena free: the slab handle and the
// geometry snapshot (both opaque to this package, managed by the caller)
// the block index was resolved under, plus the block's address so a
// stale entry can be retried through the unbuffered path.
type RemoteFree struct {
	Slab any
	Geom any
	Addr uint64
	Idx  int
}

// RemoteBuf accumulates one thread's frees of blocks owned by a single
// remote arena, so they can be drained in one owner-arena critical
// section (a batched WAL append plus the bitmap clears, two fences
// total) instead of one acquisition and two fences per free.
//
// The buffer double-buffers its backing storage: Take hands the caller
// the filled array and swaps in the one returned by the previous Take,
// so the steady state allocates nothing. The caller must finish with a
// Take'd slice before calling Take again (true for the single-threaded
// drain, which never re-enters itself).
type RemoteBuf struct {
	frees []RemoteFree
	spare []RemoteFree
}

// Add appends one free and returns the new buffer length.
func (b *RemoteBuf) Add(f RemoteFree) int {
	b.frees = append(b.frees, f)
	return len(b.frees)
}

// Len returns the number of buffered frees.
func (b *RemoteBuf) Len() int { return len(b.frees) }

// Take removes and returns every buffered free, swapping in the other
// backing array for subsequent Adds.
func (b *RemoteBuf) Take() []RemoteFree {
	out := b.frees
	b.frees = b.spare[:0]
	b.spare = out[:0]
	return out
}
