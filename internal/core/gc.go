package core

import (
	"sort"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
)

// conservativeGC implements NVAlloc-GC's failure recovery: a
// conservative mark-and-sweep from the persistent root slots, as in
// Makalu. Any 8-byte-aligned word inside a reachable object whose value
// is the exact start address of a slab block or extent keeps that object
// alive. Unreachable small blocks have their bitmap bits cleared;
// unreachable (non-slab) extents are freed. The sweep writes the bits in
// the cache image and flushes each bitmap line it changed once, under one
// fence, when it is through: the variant never flushed a bit at run time,
// so a crash leaves nearly every live block's bit to set, and a flush per
// bit of a sequential bitmap would hit the same line again and again. A
// crash inside the sweep is covered by the run-state word, which still
// says recovery: the next Open marks and sweeps from the roots again,
// whatever part of the bitmaps reached the media. Interior pointers are not
// chased (objects must be referenced by their start address). An error
// means the bookkeeper could not tombstone every leaked extent; the ones
// it did tombstone are freed, the rest stay allocated and recorded.
func (h *Heap) conservativeGC(c *pmem.Ctx) error {
	// resolve sizes the object a candidate pointer value starts. A live
	// old-class block of a morphing slab is scanned over its own size.
	resolve := func(p pmem.PAddr) (uint64, bool) {
		if p < h.heapBase || uint64(p) >= h.dev.Size() || p%8 != 0 {
			return 0, false
		}
		if s := h.slabs.Lookup(p &^ (slab.Size - 1)); s != nil {
			if s.OldBlockIndex(p) >= 0 {
				return s.OldBlockSize(), true
			}
			return uint64(s.BlockSize), s.BlockIndex(p) >= 0
		}
		return h.large.Live(p)
	}
	marked := alloc.Mark(h, resolve, func(size uint64) {
		c.Charge(pmem.CatSearch, int64(size)/16+10)
	})

	// Sweep slabs in address order (deterministic freelist rebuild):
	// allocation state becomes exactly the marked set. The sweep reads
	// every slab, so it builds every bitmap.
	h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
		a := h.arenas[s.Owner]
		h.recoveryBuild(c, s)
		for idx := 0; idx < s.Blocks; idx++ {
			if s.IsSlabIn() {
				// Blocks pinned by live old-class data stay allocated.
				if cnt := s.OverlapCount(idx); cnt > 0 {
					continue
				}
			}
			h.forceBit(c, s, idx, marked[s.BlockAddr(idx)], a)
		}
		// Old-class blocks: sweep via the index table.
		if s.IsSlabIn() {
			for _, oldIdx := range s.OldIndices() {
				if !marked[s.OldBlockAddr(oldIdx)] {
					_, _ = s.FreeOldBlock(c, oldIdx, true)
				}
			}
			h.relist(s)
		}
		c.Charge(pmem.CatSearch, int64(s.Blocks)/8)
		return true
	})
	flushed := false
	for _, a := range h.arenas {
		flushed = a.writeBack(c) || flushed
	}
	if flushed {
		c.Fence()
	}

	// Open dealt the slabs round robin over the arenas, and a heap may get
	// fewer threads than it has arenas: a slab on an arena no thread
	// attaches to keeps the blocks the sweep freed for good. So the slabs
	// the sweep left empty go back to the large allocator with the leaks,
	// and the first thread's arena adopts the rest that have a free block
	// (Heap.strays).
	var leaked []pmem.PAddr
	h.slabs.Range(func(base pmem.PAddr, s *slab.Slab) bool {
		switch {
		case s.Allocated == 0 && s.OldClass < 0:
			leaked = append(leaked, base)
		case s.FreeCount() > 0:
			h.strays = append(h.strays, s)
		}
		return true
	})
	for _, base := range leaked {
		s := h.slabs.Lookup(base)
		h.arenas[s.Owner].unlist(s)
		h.arenas[s.Owner].retire(c, s)
		h.slabs.Delete(base)
	}

	// Sweep extents: unreachable non-slab extents are leaks; free them in
	// address order so the rebuilt extent freelists are deterministic.
	h.large.Each(func(addr pmem.PAddr, _ uint64) {
		if !marked[addr] {
			leaked = append(leaked, addr)
		}
	})
	sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
	// Batched tombstones: one fence for the whole leak sweep. Safe here
	// because a crash mid-batch just leaves some leaks for the next
	// recovery's GC to re-find (idempotent).
	return h.large.FreeBatch(c, leaked)
}
