package blog

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"nvalloc/internal/pmem"
)

// Sharded is the bookkeeping log: N independent, persistently
// self-contained shards (N = 1 is simply a log with one shard) behind
// the extent layer's Bookkeeper interface. Each shard owns an equal
// slice of the log region — its own header (chain pointers, alt bit,
// break) and chunk chain — plus its own resource, so record and
// tombstone appends routed to different shards never serialize. Records
// are routed by a deterministic hash of the extent address (a stable
// proxy for the owning arena, whose extents are arena-private), which
// guarantees a free finds the shard its record went to.
//
// Sharded serializes itself: callers do NOT wrap calls in an external
// resource (see SelfLocked). GC also runs inline, per shard, inside the
// same shard section as the free that triggered it.
type Sharded struct {
	shards []*Log
	res    []pmem.Resource
}

// shardGranule is the routing granularity: all addresses inside one
// 2 MiB-aligned region hash to the same shard. The granule matches the
// extent layer's lease quantum and comfortably covers one slab-batch
// carve, so the records of a batched refill (contiguous addresses) land
// in one shard — one chunk, one fence — while unrelated regions (other
// arenas' carves, other pools' leases) still spread across shards.
const shardGranule = 2 << 20

// ShardIndex routes an extent address to a shard: a golden-ratio
// multiplicative hash over the address's 2 MiB granule number (see
// shardGranule). Deterministic: the same address always routes to the
// same shard, in every session, which is what lets a tombstone find its
// record.
func ShardIndex(addr pmem.PAddr, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(addr) / shardGranule * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// RegionSize returns the total log-region size for a heap of the given
// byte capacity split over n shards: a chunk-aligned ~1.5% of the heap
// (the paper provisions 100 MB for terabyte-class heaps) divided evenly,
// with each shard floored at the minimum useful region and chunk-aligned.
func RegionSize(heapBytes uint64, n int) uint64 {
	if n < 1 {
		n = 1
	}
	per := (heapBytes/64 + ChunkSize - 1) &^ (ChunkSize - 1) / uint64(n)
	if per < 64*ChunkSize {
		per = 64 * ChunkSize
	}
	per = (per + ChunkSize - 1) &^ (ChunkSize - 1)
	return per * uint64(n)
}

// shardLayout splits a size-byte region into n equal chunk-aligned
// sub-regions (n < 1 reads as 1), returning the shard count and the
// per-shard size; shard i starts at base + i*per.
func shardLayout(size uint64, n int) (int, uint64) {
	if n < 1 {
		n = 1
	}
	per := (size / uint64(n)) &^ (ChunkSize - 1)
	if per < headerSize+ChunkSize {
		panic(fmt.Sprintf("blog: region %d too small for %d shards", size, n))
	}
	return n, per
}

// New formats n fresh log shards over [base, base+size).
//
// Formatting is lazy: a fresh (zeroed) region already reads as n valid
// empty shards — zero chain pointers and alt word unseal as zero, and a
// zero break word means "nothing carved yet" (see readBreak). A shard's
// first persistent write happens with its first chunk carve, so creating
// a log that is never appended to costs nothing. Like walog.New, this
// assumes a fresh device: Create never reformats a region holding a
// previous image.
func New(dev pmem.Mem, base pmem.PAddr, size uint64, stripes, n int) *Sharded {
	n, per := shardLayout(size, n)
	s := &Sharded{shards: make([]*Log, n), res: make([]pmem.Resource, n)}
	for i := range s.shards {
		s.shards[i] = newLog(dev, base+pmem.PAddr(uint64(i)*per), per, stripes)
	}
	return s
}

// Open reopens n log shards after a restart or crash. Every shard
// recovers independently (each is persistently self-contained), so the
// shards are read concurrently; the repairs a read finds owed then run
// shard by shard, which leaves the flushes and the error (the lowest
// shard's) of a serial open. The per-shard live sets are merged into one
// deterministic, address-ordered record list. A crash with any subset of
// shards mid-append recovers each shard's valid prefix.
func Open(dev pmem.Dev, base pmem.PAddr, size uint64, stripes, n int) (*Sharded, []Record, error) {
	n, per := shardLayout(size, n)
	s := &Sharded{shards: make([]*Log, n), res: make([]pmem.Resource, n)}
	reads := make([]shardRead, n)
	var wg sync.WaitGroup
	for i := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads[i] = openLog(dev, base+pmem.PAddr(uint64(i)*per), per, stripes)
		}()
	}
	wg.Wait()
	var all []Record
	for i, r := range reads {
		for _, fix := range r.fixes {
			fix()
		}
		r.c.Merge()
		if r.err != nil {
			return nil, nil, fmt.Errorf("blog shard %d: %w", i, r.err)
		}
		s.shards[i] = r.l
		all = append(all, r.recs...)
	}
	// Shards hold disjoint address sets (routing is by address), so the
	// merge is a plain sort: deterministic and collision-free.
	slices.SortFunc(all, func(a, b Record) int { return cmp.Compare(a.Addr, b.Addr) })
	return s, all, nil
}

// SelfLocked implements extent.Bookkeeper: Sharded serializes its own
// calls, so the extent layer takes no external bookkeeper resource.
func (s *Sharded) SelfLocked() bool { return true }

// DataOffset implements extent.Bookkeeper: shards live in their own
// region, so heap chunks carry no per-chunk reservation.
func (s *Sharded) DataOffset() uint64 { return 0 }

// RecordAlloc persists that [addr,addr+size) is live, in addr's shard.
//
// The shard's resource covers only slot reservation (a cursor bump, an
// index insert, the occasional chunk carve); the entry's flush and the
// trailing fence run outside it. Concurrent appends that route to the
// same shard therefore serialize only on the near-free reservation —
// the media write is slot-private — instead of queueing behind each
// other's flush+fence. The outstanding counter keeps GC away from the
// shard while any reserved slot's word is still unwritten.
func (s *Sharded) RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	t := TypeExtent
	if slab {
		t = TypeSlab
	}
	e := encode(addr, size, t)
	i := ShardIndex(addr, len(s.shards))
	l := s.shards[i]
	s.res[i].Acquire(c)
	ref, err := l.reserve(c)
	if err == nil {
		l.index[addr] = ref
		l.outstanding++
	}
	s.res[i].Release(c)
	if err != nil {
		return err
	}
	l.publish(c, ref, e)
	c.Fence()
	s.res[i].Lock()
	l.outstanding--
	s.res[i].Unlock()
	return nil
}

// RecordFree persists a tombstone for every address, one group per
// shard with one trailing fence per group, and lets each touched shard
// run (incremental) GC at the start of its section. A single free is a
// group of one. It returns how many tombstones it persisted: on an error
// (unrecorded address, region exhausted) the groups already written and
// the failing group's valid prefix stay persisted and fenced, and —
// since grouping may reorder addrs — they are exactly addrs[:n] as the
// slice reads on return.
func (s *Sharded) RecordFree(c *pmem.Ctx, addrs []pmem.PAddr) (int, error) {
	n := len(s.shards)
	if n > 1 && len(addrs) > 1 {
		// Stable, so each shard's tombstones keep the caller's order.
		slices.SortStableFunc(addrs, func(a, b pmem.PAddr) int { return ShardIndex(a, n) - ShardIndex(b, n) })
	}
	done := 0
	for done < len(addrs) {
		i := ShardIndex(addrs[done], n)
		end := done + 1
		for end < len(addrs) && ShardIndex(addrs[end], n) == i {
			end++
		}
		k, err := s.freeGroup(c, i, addrs[done:end])
		done += k
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// freeGroup tombstones a same-shard group. Like RecordAlloc, only slot
// reservation — with the index removals and vbit invalidations — runs
// under the shard resource; the publishes and the single fence run
// outside it.
func (s *Sharded) freeGroup(c *pmem.Ctx, i int, addrs []pmem.PAddr) (int, error) {
	l := s.shards[i]
	var buf [8]entryRef // a small group's slots never leave the stack
	refs := buf[:0]
	s.res[i].Acquire(c)
	if l.outstanding == 0 {
		l.MaybeGC(c)
	}
	var err error
	for _, a := range addrs {
		ref, ok := l.index[a]
		if !ok {
			err = fmt.Errorf("blog: free of unrecorded extent %#x", a)
			break
		}
		var tref entryRef
		if tref, err = l.reserve(c); err != nil {
			break
		}
		delete(l.index, a)
		if v, ok := l.chunks.Get(ref.chunk); ok {
			v.clear(ref.slot)
			l.noteEmpty(v)
		}
		refs = append(refs, tref)
	}
	if len(refs) > 0 {
		l.outstanding++ // one increment covers the whole group
	}
	s.res[i].Release(c)
	if len(refs) == 0 {
		return 0, err
	}
	for k, tref := range refs {
		l.publish(c, tref, encode(addrs[k], 0, TypeTombstone))
	}
	c.Fence()
	s.res[i].Lock()
	l.outstanding--
	s.res[i].Unlock()
	return len(refs), err
}

// SetSlowGCThreshold divides a whole-log slow-GC threshold evenly over
// the shards (floored at one chunk so an aggressive threshold still
// triggers per-shard GC).
func (s *Sharded) SetSlowGCThreshold(total uint64) {
	per := total / uint64(len(s.shards))
	if per < ChunkSize {
		per = ChunkSize
	}
	for _, l := range s.shards {
		l.SlowGCThreshold = per
	}
}

// MaybeGCAll runs every shard's GC policy once (Log.MaybeGC, what a free
// routed to the shard would run first) and returns how many shards were
// over their slow-GC threshold. Open calls it on the reopened log, so a
// shard is compacted at open only when its next free would have begun the
// same compaction. A shard with a publish in flight is skipped.
func (s *Sharded) MaybeGCAll(c *pmem.Ctx) (slow int) {
	for i, l := range s.shards {
		s.res[i].Acquire(c)
		if l.outstanding == 0 {
			before := l.slowGCs
			l.MaybeGC(c)
			if l.gc != nil || l.slowGCs != before {
				slow++
			}
		}
		s.res[i].Release(c)
	}
	return slow
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes one shard (tests and stats).
func (s *Sharded) Shard(i int) *Log { return s.shards[i] }

// Res exposes shard i's resource for contention instrumentation.
func (s *Sharded) Res(i int) *pmem.Resource { return &s.res[i] }

// EntriesPerChunk returns the per-chunk entry capacity (identical for
// every shard).
func (s *Sharded) EntriesPerChunk() int { return s.shards[0].EntriesPerChunk() }

// Live returns the number of live (indexed) extents across all shards.
func (s *Sharded) Live() int {
	n := 0
	for _, l := range s.shards {
		n += l.Live()
	}
	return n
}

// ActiveChunks returns the total active-chain length across all shards.
func (s *Sharded) ActiveChunks() int {
	n := 0
	for _, l := range s.shards {
		n += l.ActiveChunks()
	}
	return n
}

// FreeChunks returns the total free-chunk count across all shards.
func (s *Sharded) FreeChunks() int {
	n := 0
	for _, l := range s.shards {
		n += l.FreeChunks()
	}
	return n
}

// GCCounts returns total fast and slow GC passes across all shards.
func (s *Sharded) GCCounts() (fast, slow uint64) {
	for _, l := range s.shards {
		f, sl := l.GCCounts()
		fast += f
		slow += sl
	}
	return fast, slow
}

// Scrub repairs every shard of a damaged log region in place (see
// scrubLog), prefixing each repair with its shard index.
func Scrub(dev pmem.Dev, base pmem.PAddr, size uint64, stripes, n int) []string {
	n, per := shardLayout(size, n)
	var done []string
	for i := 0; i < n; i++ {
		for _, m := range scrubLog(dev, base+pmem.PAddr(uint64(i)*per), per, stripes) {
			done = append(done, fmt.Sprintf("shard %d: %s", i, m))
		}
	}
	return done
}

// DropRecord zeroes every normal entry for addr across all shards (see
// dropRecordLog). The walk covers every shard rather than just addr's
// routed shard, so it stays correct even against images written with a
// different routing function.
func DropRecord(dev pmem.Dev, base pmem.PAddr, size uint64, stripes, n int, addr pmem.PAddr) int {
	n, per := shardLayout(size, n)
	dropped := 0
	for i := 0; i < n; i++ {
		dropped += dropRecordLog(dev, base+pmem.PAddr(uint64(i)*per), per, stripes, addr)
	}
	return dropped
}
