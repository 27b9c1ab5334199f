package core

import (
	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// Region is one labeled device range of the NVAlloc on-media layout.
// Crash harnesses use the labels to classify which persistent structure
// a flush (or a fault) landed in.
type Region struct {
	Name  string // "superblock", "roots", "wal", "blog" or "heap"
	Range pmem.Range
}

// Regions returns the labeled layout of an NVAlloc device: the
// checksummed superblock fields, the root-slot array, the WAL rings, the
// bookkeeping-log region (log-structured mode only) and the slab/extent
// heap area. The device must hold a valid superblock.
func Regions(dev pmem.Dev) []Region {
	rs := []Region{
		{Name: "superblock", Range: pmem.Range{Start: superBase, End: superBase + sbRoots}},
		{Name: "roots", Range: pmem.Range{Start: superBase + sbRoots, End: superBase + sbRoots + 8*alloc.NumRootSlots}},
	}
	arenas := dev.ReadU64(superBase + sbArenas)
	walEnts := int(dev.ReadU64(superBase + sbWALEnts))
	stripes := int(dev.ReadU64(superBase + sbStripes))
	walBase := pmem.PAddr(dev.ReadU64(superBase + sbWALBase))
	region := pmem.PAddr(walog.RegionSize(walEnts, stripes))
	rs = append(rs, Region{Name: "wal", Range: pmem.Range{Start: walBase, End: walBase + pmem.PAddr(arenas)*region}})
	if dev.ReadU64(superBase+sbBookMode) == 1 {
		blogBase := pmem.PAddr(dev.ReadU64(superBase + sbBlogBase))
		blogSize := dev.ReadU64(superBase + sbBlogSize)
		rs = append(rs, Region{Name: "blog", Range: pmem.Range{Start: blogBase, End: blogBase + pmem.PAddr(blogSize)}})
	}
	heapBase := pmem.PAddr(dev.ReadU64(superBase + sbHeapBase))
	rs = append(rs, Region{Name: "heap", Range: pmem.Range{Start: heapBase, End: pmem.PAddr(dev.Size())}})
	return rs
}

// MetaRanges returns the device regions holding checksummed or sealed
// NVAlloc metadata: the superblock fields but the heap break (it moves at
// run time, so no checksum covers it), the WAL rings but each one's newest
// entry (walog.Protected), the bookkeeping-log header line and the header
// lines of the first slabs. Fault-injection harnesses restrict bit flips
// to these ranges to exercise the detection paths (a flip in plain object
// data is the application's problem, not the allocator's). The device
// must hold a valid superblock.
func MetaRanges(dev pmem.Dev) []pmem.Range {
	rs := []pmem.Range{{Start: superBase, End: superBase + sbBreak}, {Start: superBase + sbBreak + 8, End: superBase + sbRoots}}
	arenas := dev.ReadU64(superBase + sbArenas)
	walEnts := int(dev.ReadU64(superBase + sbWALEnts))
	stripes := int(dev.ReadU64(superBase + sbStripes))
	walBase := pmem.PAddr(dev.ReadU64(superBase + sbWALBase))
	rs = append(rs, walog.Protected(dev, walBase, int(arenas), walEnts, stripes)...)
	if dev.ReadU64(superBase+sbBookMode) == 1 {
		blogBase := pmem.PAddr(dev.ReadU64(superBase + sbBlogBase))
		rs = append(rs, pmem.Range{Start: blogBase, End: blogBase + pmem.LineSize})
	}
	heapBase := pmem.PAddr(dev.ReadU64(superBase + sbHeapBase))
	for k := pmem.PAddr(0); k < 32; k++ {
		base := heapBase + k*slab.Size
		if uint64(base)+pmem.LineSize > dev.Size() {
			break
		}
		rs = append(rs, pmem.Range{Start: base, End: base + pmem.LineSize})
	}
	return rs
}
