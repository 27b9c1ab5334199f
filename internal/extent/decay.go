package extent

import (
	"sort"

	"nvalloc/internal/pmem"
)

// Decay parameters: every DecayEpochNS the allocator recomputes the
// smootherstep threshold TH_decay for the reclaimed and retained lists and
// demotes the oldest free extents above it (the paper's Section 2.2,
// following jemalloc's 50 ms decay interval). Time is the Clock of the
// device the heap lives on: virtual time on the simulated device, the wall
// clock on the direct one.
const (
	// DecayEpochNS is the tick interval (50 ms).
	DecayEpochNS = 50 * 1000 * 1000
	// DecayWindowNS is the time over which a fully idle list decays to
	// zero allowed bytes.
	DecayWindowNS = 500 * 1000 * 1000
)

// Smootherstep is Ken Perlin's 6t^5-15t^4+10t^3, clamped to [0,1]. The
// decay threshold is base*(1-Smootherstep(elapsed/window)).
func Smootherstep(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t * t * t * (t*(t*6-15) + 10)
}

// maybeDecay runs the decay pass if a full epoch has passed. Callers hold
// Res.
func (p *Pool) maybeDecay(c *pmem.Ctx) {
	now := c.Clock()
	if now-p.lastDecay < DecayEpochNS {
		return
	}
	p.lastDecay = now
	p.decays++
	p.decayTick(c)
}

// decayTick runs one decay pass. The allowed bytes TH_decay of a free
// list is the sum over its extents of size*(1-Smootherstep(age/window)):
// freshly freed extents contribute their full size, fully aged extents
// contribute nothing. While the list holds more than TH_decay, the
// oldest extents are demoted — reclaimed to retained ("unmap physical":
// the device discards their pages), retained to released ("return to
// OS"). An extent whose pages the device keeps stays reclaimed, and the
// pass stops there: Used never leaves out a byte that is still backed.
//
// The pass runs inside whichever verb crosses the epoch, so it allocates
// nothing: demote reuses index nodes, and the FIFOs keep their capacity.
func (p *Pool) decayTick(c *pmem.Ctx) {
	now := c.Clock()
	// limit computes the allowed bytes and, as a side effect, compacts
	// the FIFO: entries whose extents were reactivated or merged since
	// they were queued are dropped, so the queue stays proportional to
	// the live free-extent population instead of growing with the total
	// number of frees.
	limit := func(fifo *[]*VEH, want State) uint64 {
		var allowed float64
		q := *fifo
		kept := q[:0]
		for _, v := range q {
			cur, ok := p.byAddr.Get(v.Addr)
			if !ok || cur != v || v.State != want {
				continue
			}
			kept = append(kept, v)
			age := float64(now-v.LastFree) / float64(DecayWindowNS)
			allowed += float64(v.Size) * (1 - Smootherstep(age))
		}
		*fifo = kept
		return uint64(allowed)
	}

	th := limit(&p.fifoReclaimed, Reclaimed)
	p.drainFIFO(&p.fifoReclaimed, Reclaimed, func(v *VEH) bool {
		if p.reclaimedBytes.Load() <= th || p.dev.Discard(v.Addr, int(v.Size)) != nil {
			return false
		}
		p.demote(v, Retained, now)
		c.Charge(pmem.CatOther, 40) // madvise-equivalent cost
		return true
	})

	th = limit(&p.fifoRetained, Retained)
	p.drainFIFO(&p.fifoRetained, Retained, func(v *VEH) bool {
		if p.retainedBytes <= th {
			return false
		}
		p.demote(v, Released, now)
		c.Charge(pmem.CatOther, 60) // munmap-equivalent cost
		return true
	})
}

// drainFIFO pops entries from the front of a free-extent FIFO in
// insertion (age) order, skipping stale entries (extents that were
// reactivated or merged since). fn returns false to stop. What is left
// moves to the front, so the FIFO keeps its capacity and appends to it
// stop allocating once it has reached its working size.
func (p *Pool) drainFIFO(fifo *[]*VEH, want State, fn func(*VEH) bool) {
	q := *fifo
	i := 0
	for ; i < len(q); i++ {
		v := q[i]
		cur, ok := p.byAddr.Get(v.Addr)
		if !ok || cur != v || v.State != want {
			continue // stale entry
		}
		if !fn(v) {
			break
		}
	}
	n := copy(q, q[i:])
	clear(q[n:])
	*fifo = q[:n]
}

// Rebuild reconstructs the allocator's volatile state during recovery:
// the records are the live extents (from the bookkeeper), and every gap
// between them inside [heapBase, break) becomes a reclaimed free extent —
// slab caches and shard pools start empty, because what they held was
// carved and never recorded. It returns the records in address order.
//
// The record set is validated before it is trusted — each record must be
// page-aligned, inside the heap and non-overlapping — and the stored
// break self-heals: if it is torn or flipped it is rewritten to the
// smallest chunk-aligned value covering every live record. The records
// themselves are kept as they are: a record gets its entry in the
// activated set, and its caller the 30 ns that costs, the first time a free
// or a release needs it (Pool.take). Lookups, Each, Len and the byte
// counts read the records without one.
func Rebuild(dev pmem.Dev, book Bookkeeper, cfg Config, t Tiers, c *pmem.Ctx, records []LiveRecord) (*Allocator, []LiveRecord, error) {
	p := newPool(dev, book, cfg)
	sort.Slice(records, func(i, j int) bool { return records[i].Addr < records[j].Addr })

	check := p.heapBase
	for _, r := range records {
		if r.Addr < p.heapBase || r.Addr%PageSize != 0 {
			return nil, nil, pmem.Corrupt("extent", r.Addr, "live record misaligned or below heap base %#x", p.heapBase)
		}
		if r.Size == 0 || uint64(r.Addr)+r.Size > uint64(cfg.HeapEnd) {
			return nil, nil, pmem.Corrupt("extent", r.Addr, "live record size %d reaches past heap end %#x", r.Size, cfg.HeapEnd)
		}
		if r.Addr < check {
			return nil, nil, pmem.Corrupt("extent", r.Addr, "live record overlaps its predecessor ending at %#x", check)
		}
		check = r.Addr + pmem.PAddr(r.Size)
		p.activatedBytes.Add(r.Size)
	}
	p.recovered, p.indexed, p.pending = records, make([]bool, len(records)), len(records)
	minBrk := p.heapBase + pmem.PAddr((uint64(check-p.heapBase)+ChunkSize-1)&^uint64(ChunkSize-1))
	brk := pmem.PAddr(dev.ReadU64(cfg.BreakPtr))
	if brk < minBrk || brk > cfg.HeapEnd || uint64(brk-p.heapBase)%ChunkSize != 0 {
		brk = minBrk
		c.PersistU64(pmem.CatMeta, cfg.BreakPtr, uint64(brk))
		c.Fence()
	}
	res := p.book.DataOffset()
	if res > 0 {
		// Header reservations at the start of every grown chunk are
		// metadata, not free space.
		n := uint64(brk-p.heapBase) / ChunkSize
		p.metaBytes.Add(n * res)
	}

	cursor := p.heapBase
	flushGap := func(from, to pmem.PAddr) {
		for from < to {
			// Carve out bookkeeper reservations chunk by chunk.
			chunkBase := p.heapBase + (from-p.heapBase)&^(ChunkSize-1)
			dataStart := chunkBase + pmem.PAddr(res)
			if from < dataStart {
				from = dataStart
				continue
			}
			chunkEnd := chunkBase + ChunkSize
			end := to
			if end > chunkEnd {
				end = chunkEnd
			}
			if end > from {
				v := &VEH{Addr: from, Size: uint64(end - from)}
				p.insertFree(v, Retained, 0)
				p.coalesce(c, v)
			}
			from = end
		}
	}
	for _, r := range records {
		if r.Addr > cursor {
			flushGap(cursor, r.Addr)
		}
		cursor = r.Addr + pmem.PAddr(r.Size)
	}
	if cursor < brk {
		flushGap(cursor, brk)
	}
	p.notePeak()
	return newAllocator(p, t), records, nil
}

// LiveRecord is a live-extent record handed to Rebuild (mirrors
// blog.Record without importing it, so both bookkeepers can produce it).
type LiveRecord struct {
	Addr pmem.PAddr
	Size uint64
	Slab bool
}
