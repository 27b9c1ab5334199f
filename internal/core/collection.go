package core

import (
	"sort"

	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
)

// This file implements the paper's stated future-work variant: internal
// collection (Section 4.1 / Section 7, "Allocators using internal
// collection"). PMDK's non-transactional atomic allocations rely on the
// allocator being able to enumerate every live object (POBJ_FIRST /
// POBJ_NEXT), so users "never lose a reference" and no write-ahead log is
// needed: after a crash the application walks the collection and decides
// what to keep.
//
// In NVAlloc-IC the small path persists bitmap updates eagerly (like
// NVAlloc-LOG, with interleaved mapping so the flushes stay cheap) but
// writes no WAL; the bookkeeping log already enumerates extents. Objects
// iterates every live allocation in address order.

// Object describes one live allocation reported by Objects.
type Object struct {
	Addr pmem.PAddr
	Size uint64
	// Slab reports whether the object is a small block (true) or a large
	// extent (false).
	Slab bool
}

// Objects invokes fn on every live allocation — small blocks via slab
// bitmaps, large objects via the extent allocator — in address order,
// stopping early if fn returns false. It is the internal-collection
// iteration interface (PMDK's POBJ_FIRST/POBJ_NEXT); after a crash of an
// NVAlloc-IC heap it enumerates exactly the allocations whose metadata
// had been persisted.
//
// The snapshot is consistent per slab/extent but not globally atomic;
// quiesce mutators for an exact enumeration. It builds the bitmap of every
// slab Open left unbuilt, uncharged: it runs on no thread's clock.
func (h *Heap) Objects(fn func(Object) bool) {
	// Collect slab bases and extents, then walk in address order (the
	// page map already ranges in ascending base order).
	slabs := make([]*slab.Slab, 0, h.slabs.Len())
	h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
		slabs = append(slabs, s)
		return true
	})

	var exts []Object
	h.large.Each(func(addr pmem.PAddr, size uint64) {
		exts = append(exts, Object{Addr: addr, Size: size, Slab: false})
	})
	sort.Slice(exts, func(i, j int) bool { return exts[i].Addr < exts[j].Addr })

	ei := 0
	emit := func(o Object) bool { return fn(o) }
	for _, s := range slabs {
		// Flush extents that precede this slab.
		for ei < len(exts) && exts[ei].Addr < s.Base {
			if !emit(exts[ei]) {
				return
			}
			ei++
		}
		h.lockSlabState(s)
		s.Build(nil)
		var objs []Object
		for idx := 0; idx < s.Blocks; idx++ {
			// Reserved (tcache) blocks are not live objects; new-class
			// blocks pinned by old-class survivors are reported through
			// the index table instead.
			if s.BlockAllocated(idx) && s.OverlapCount(idx) == 0 && !s.BlockReserved(idx) {
				objs = append(objs, Object{Addr: s.BlockAddr(idx), Size: uint64(s.BlockSize), Slab: true})
			}
		}
		if s.IsSlabIn() {
			oldSize := s.OldBlockSize()
			for _, oldIdx := range s.OldIndices() {
				objs = append(objs, Object{Addr: s.OldBlockAddr(oldIdx), Size: oldSize, Slab: true})
			}
		}
		h.unlockSlabState(s)
		sort.Slice(objs, func(i, j int) bool { return objs[i].Addr < objs[j].Addr })
		for _, o := range objs {
			if !emit(o) {
				return
			}
		}
	}
	for ; ei < len(exts); ei++ {
		if !emit(exts[ei]) {
			return
		}
	}
}
