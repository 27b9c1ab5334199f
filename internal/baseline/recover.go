package baseline

import (
	"sort"

	"nvalloc/internal/alloc"
	"nvalloc/internal/bitfit"
	"nvalloc/internal/extent"
	"nvalloc/internal/pagemap"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/walog"
)

// validateSuper checks the baseline superblock before any of its fields
// are trusted: magic, checksum, format version and the region layout. A
// zeroed, truncated or bit-flipped image yields a typed CorruptError here
// instead of a panic deeper into recovery, an intact image of another
// format version a *pmem.FormatError.
func validateSuper(dev pmem.Dev) error {
	if dev.Size() < uint64(superBase)+4096 {
		return pmem.Corrupt("superblock", superBase, "device too small (%d bytes) for a superblock page", dev.Size())
	}
	if m := dev.ReadU64(superBase + sbMagic); m != baseMagic {
		return pmem.Corrupt("superblock", superBase+sbMagic, "bad magic %#x (no heap on device)", m)
	}
	if got, want := dev.ReadU64(superBase+sbChecksum), uint64(superCRC(dev)); got != want {
		return pmem.Corrupt("superblock", superBase+sbChecksum, "checksum %#x, want %#x", got, want)
	}
	if v := dev.ReadU64(superBase + sbVersion); v != superVersion {
		return &pmem.FormatError{Component: "baseline", Version: v, Want: superVersion}
	}
	walBase := dev.ReadU64(superBase + sbWALBase)
	walSize := dev.ReadU64(superBase + sbWALSize)
	heapBase := dev.ReadU64(superBase + sbHeapBase)
	switch {
	case walSize != uint64(walog.RegionSize(walEntriesPerArena, 1)):
		return pmem.Corrupt("superblock", superBase+sbWALSize, "WAL region size %d, want %d", walSize, walog.RegionSize(walEntriesPerArena, 1))
	case walBase < uint64(superBase)+4096 || walBase%8 != 0 || walBase+uint64(maxArenas+1)*walSize > heapBase:
		return pmem.Corrupt("superblock", superBase+sbWALBase, "WAL region [%#x,%#x) overlaps neighbours", walBase, walBase+uint64(maxArenas+1)*walSize)
	case heapBase%extent.LeaseAlign != 0 || heapBase+extent.ChunkSize > dev.Size():
		return pmem.Corrupt("superblock", superBase+sbHeapBase, "heap base %#x misaligned or past device end", heapBase)
	}
	return nil
}

// MetaRanges returns the device regions holding checksummed or sealed
// baseline metadata — the superblock fields but the heap break, and the WAL
// rings but each one's newest entry (walog.Protected) — for fault-injection
// harnesses that restrict bit flips to metadata in which a flip must be
// detected. Slab headers are not among them: a magic and a class-range
// check is all the modelled allocators give theirs. The device must hold a
// valid superblock.
func MetaRanges(dev pmem.Dev) []pmem.Range {
	rs := []pmem.Range{{Start: superBase, End: superBase + sbBreak}, {Start: superBase + sbBreak + 8, End: superBase + sbRoots}}
	walBase := pmem.PAddr(dev.ReadU64(superBase + sbWALBase))
	return append(rs, walog.Protected(dev, walBase, maxArenas+1, walEntriesPerArena, 1)...)
}

// Open reopens a baseline heap, rebuilding volatile state and charging
// the recovery cost profile of the configured allocator (Figure 18).
func Open(dev pmem.Dev, cfg Config) (*Heap, int64, error) {
	if err := cfg.check(); err != nil {
		return nil, 0, err
	}
	if err := validateSuper(dev); err != nil {
		return nil, 0, err
	}
	h := &Heap{cfg: cfg, dev: dev, slabs: pagemap.New[bslab](dev.Size(), SlabSize)}
	heapBase := pmem.PAddr(dev.ReadU64(superBase + sbHeapBase))
	walBase := pmem.PAddr(dev.ReadU64(superBase + sbWALBase))
	walRegion := pmem.PAddr(dev.ReadU64(superBase + sbWALSize))
	state, ok := pmem.UnsealU64(dev.ReadU64(superBase + sbState))
	if !ok {
		return nil, 0, pmem.Corrupt("superblock", superBase+sbState, "run-state word fails seal check")
	}
	crashed := state != stateShutdown

	c := dev.NewCtx()

	h.book = extent.NewInPlace(dev, heapBase, superBase+sbBreak)
	records := h.book.Recover(c)
	large, records, err := extent.Rebuild(dev, h.book, extent.Config{
		HeapBase:  heapBase,
		HeapEnd:   pmem.PAddr(dev.Size()),
		BreakPtr:  superBase + sbBreak,
		MetaBytes: uint64(walBase),
	}, extent.Tiers{}, c, records)
	if err != nil {
		return nil, 0, err
	}
	h.large = large
	// The recovery profiles modelled here are inputs taken from the paper
	// (Figure 18), and they index every live extent at open: the charge is
	// 30 ns per record even though Rebuild gives a record its entry only
	// when a free first needs it — which charges again, on that free.
	c.Charge(pmem.CatSearch, 30*int64(len(records)))

	// Rebuild slabs from their persistent metadata images. Owners are
	// assigned below, once crashed WAL replay has settled each slab's
	// allocation counts.
	var slabs []*bslab
	for _, r := range records {
		if !r.Slab {
			continue
		}
		if uint64(r.Addr)%SlabSize != 0 || r.Size != SlabSize {
			return nil, 0, pmem.Corrupt("slab", r.Addr, "slab record misaligned or sized %d, want %d", r.Size, uint64(SlabSize))
		}
		s, err := h.loadSlab(c, r.Addr)
		if err != nil {
			return nil, 0, err
		}
		h.slabs.Store(r.Addr, s)
		slabs = append(slabs, s)
	}

	if crashed && cfg.LogEntries > 0 {
		// A WAL-bearing style must consume its logs after a crash no
		// matter what its recovery style advertises: an in-flight root
		// publish (OpPublish) is recorded nowhere else, so skipping
		// replay would lose it. Every region is swept — per-thread
		// arenas of the crashed run are not instantiated here, but their
		// rings still hold entries.
		// Only the rings the configuration actually uses are charged —
		// ring 0 and the shared arenas', or any ring with private arenas,
		// since any may belong to a crashed thread. The rest of the fixed
		// 65-slot reservation is a layout artifact this Go model shares
		// across arena models, and nvm_malloc's deferred profile keeps its
		// nearly-free open. The uncharged sweep runs on a side context
		// that is never merged.
		side := dev.NewCtx()
		for slot := 0; slot <= maxArenas; slot++ {
			rc := side
			if cfg.Recovery != RecoverDeferred && (cfg.Arenas == 0 || slot <= cfg.Arenas) {
				rc = c
			}
			w, err := walog.New(dev.Mem(), walBase+pmem.PAddr(slot)*walRegion, walEntriesPerArena, 1)
			if err != nil {
				return nil, 0, err
			}
			if err := h.replayRing(rc, w); err != nil {
				return nil, 0, err
			}
			w.Checkpoint(rc)
		}
	}

	if err := h.startArenas(); err != nil {
		return nil, 0, err
	}

	// Assign slab owners round-robin, in discovery (address) order.
	if len(h.arenas) == 0 && len(slabs) > 0 {
		// Private arenas and no threads yet: one recovery arena owns the
		// recovered slabs.
		h.arenas = append(h.arenas, h.newArena())
	}
	for i, s := range slabs {
		s.owner = h.arenas[i%len(h.arenas)]
		if s.allocated < s.blocks {
			s.owner.freelistPush(s)
		}
	}

	switch cfg.Recovery {
	case RecoverDeferred:
		// nvm_malloc: metadata reconstruction is deferred to runtime
		// deallocation; opening is nearly free.
		c.Charge(pmem.CatSearch, 2000)
	case RecoverWALScan:
		// PMDK/PAllocator: travel every WAL region and slab header (the
		// crashed sweep above already paid the WAL travel after a crash).
		if !crashed {
			for _, a := range h.arenas {
				if err := h.replayRing(c, a.wal); err != nil {
					return nil, 0, err
				}
			}
			if _, err := h.travel(c, h.largeWAL); err != nil {
				return nil, 0, err
			}
		}
		h.slabs.Range(func(_ pmem.PAddr, s *bslab) bool {
			c.Charge(pmem.CatSearch, int64(s.blocks)/4+50)
			return true
		})
	case RecoverGC:
		if crashed {
			h.conservativeGC(c, true)
		} else {
			// Even clean-shutdown Makalu verifies its freelists.
			h.slabs.Range(func(_ pmem.PAddr, s *bslab) bool {
				c.Charge(pmem.CatSearch, int64(s.blocks)+100)
				return true
			})
		}
	case RecoverPartialScan:
		if crashed {
			h.conservativeGC(c, false)
		} else {
			h.slabs.Range(func(_ pmem.PAddr, s *bslab) bool {
				c.Charge(pmem.CatSearch, int64(s.blocks)/8+50)
				return true
			})
		}
	}

	c.PersistU64(pmem.CatMeta, superBase+sbState, pmem.SealU64(stateRunning))
	c.Fence()
	ns := c.Now
	c.Merge()
	return h, ns, nil
}

// loadSlab rebuilds a bslab's volatile mirror from its metadata region.
func (h *Heap) loadSlab(c *pmem.Ctx, base pmem.PAddr) (*bslab, error) {
	if m := h.dev.ReadU32(base + bsMagic); m != bslabMagic {
		return nil, pmem.Corrupt("slab", base+bsMagic, "bad slab magic %#x", m)
	}
	class := int(h.dev.ReadU32(base + bsClass))
	if class < 0 || class >= sizeclass.NumClasses() {
		return nil, pmem.Corrupt("slab", base+bsClass, "size class %d out of range", class)
	}
	s := h.mirror(base, class)
	for idx := 0; idx < s.blocks; idx++ {
		var set bool
		if h.cfg.Slots {
			set = h.dev.ReadU16(base+bsMetaOff+pmem.PAddr(idx*2))&(1<<15) != 0
		} else {
			set = h.dev.ReadU8(base+bsMetaOff+pmem.PAddr(idx/8))&(1<<(idx%8)) != 0
		}
		if set {
			s.vbits.Set(idx)
			s.allocated++
		}
	}
	if h.cfg.Recovery == RecoverDeferred {
		// nvm_malloc defers metadata reconstruction to the runtime
		// deallocation path; the scan cost is not paid at open time.
		c.Charge(pmem.CatSearch, 20)
	} else {
		c.Charge(pmem.CatSearch, int64(s.blocks)/8+20)
	}
	if h.cfg.freelist() {
		s.rebuildFreelist()
	}
	return s, nil
}

// mirror returns the volatile mirror of a slab of class at base with every
// block free and no freelist.
func (h *Heap) mirror(base pmem.PAddr, class int) *bslab {
	blocks, dataOff := bslabGeometry(&h.cfg, class)
	return &bslab{
		base:      base,
		class:     class,
		blockSize: sizeclass.Size(class),
		blocks:    blocks,
		dataOff:   dataOff,
		vbits:     bitfit.New(blocks),
		freeHeadV: -1,
	}
}

// rebuildFreelist threads the volatile list through the free blocks in
// address order.
func (s *bslab) rebuildFreelist() {
	s.vnext = make([]int, s.blocks)
	s.freeHeadV = -1
	for idx := s.blocks - 1; idx >= 0; idx-- {
		if !s.vbits.Test(idx) {
			s.vnext[idx] = s.freeHeadV
			s.freeHeadV = idx
		}
	}
}

// travel returns ring w's live entries and charges c the travel of every
// slot of the ring. The recovery profiles modelled here are inputs taken
// from the paper (Figure 18: PMDK and PAllocator "travel every WAL
// region"), so the charge is the whole ring's even though walog.Replay
// reads only the live window — which it does on a context of its own.
func (h *Heap) travel(c *pmem.Ctx, w *walog.Log) ([]walog.Entry, error) {
	c.Charge(pmem.CatSearch, walog.SlotReadNS*int64(w.Capacity()))
	return w.Replay(h.dev.NewCtx())
}

// replayRing travels w and re-applies its live entries in sequence order.
func (h *Heap) replayRing(c *pmem.Ctx, w *walog.Log) error {
	ents, err := h.travel(c, w)
	if err != nil {
		return err
	}
	for _, e := range ents {
		h.applyWAL(c, e)
	}
	return nil
}

// applyWAL re-applies a small-allocation WAL record idempotently.
func (h *Heap) applyWAL(c *pmem.Ctx, e walog.Entry) {
	switch e.Op {
	case walog.OpAllocBit, walog.OpFreeBit:
		s := h.slabs.Lookup(e.Addr)
		if s == nil {
			return
		}
		idx := int(e.Aux)
		if idx < 0 || idx >= s.blocks {
			return
		}
		want := e.Op == walog.OpAllocBit
		if s.vbits.Test(idx) != want {
			if want {
				s.vbits.Set(idx)
				s.allocated++
			} else {
				s.vbits.Clear(idx)
				s.allocated--
			}
			s.persistMeta(h, c, idx, want)
		}
	case walog.OpPublish:
		// Entry payloads carry a 24-bit CRC, thin enough that addresses
		// acted on are still bounds-checked against the device.
		if uint64(e.Addr)+8 > h.dev.Size() {
			return
		}
		// Redo the slot write: a new block is written wherever the slot
		// does not hold it yet; a detach clears the slot only while it
		// still holds the block being freed.
		cur := pmem.PAddr(h.dev.ReadU64(e.Addr))
		if e.Aux != 0 && cur != pmem.PAddr(e.Aux) {
			c.PersistU64(pmem.CatMeta, e.Addr, e.Aux)
		} else if e.Aux == 0 && cur == e.Old {
			c.PersistU64(pmem.CatMeta, e.Addr, 0)
		}
	}
}

// conservativeGC marks reachable objects from the root slots and resets
// small-allocation state to exactly the marked set. full=true (Makalu)
// additionally scans every block of every slab; false (Ralloc) touches
// only reachable nodes.
func (h *Heap) conservativeGC(c *pmem.Ctx, full bool) {
	resolve := func(p pmem.PAddr) (uint64, bool) {
		if p == pmem.Null || uint64(p) >= h.dev.Size() || p%8 != 0 {
			return 0, false
		}
		if s := h.slabs.Lookup(p &^ (SlabSize - 1)); s != nil {
			return uint64(s.blockSize), s.blockIndex(p) >= 0
		}
		return h.large.Live(p)
	}
	marked := alloc.Mark(h, resolve, func(size uint64) {
		c.Charge(pmem.CatSearch, int64(size)/8+60)
	})
	// Sweep in address order so the rebuilt freelists are deterministic.
	h.slabs.Range(func(_ pmem.PAddr, s *bslab) bool {
		if full {
			// Makalu scans the whole heap image conservatively.
			c.Charge(pmem.CatSearch, int64(s.blocks)*int64(s.blockSize)/4)
		}
		s.allocated = 0
		s.vbits.Reset()
		for idx := 0; idx < s.blocks; idx++ {
			if marked[s.blockAddr(idx)] {
				s.vbits.Set(idx)
				s.allocated++
			}
		}
		s.rebuildFreelist()
		return true
	})
	var leaked []pmem.PAddr
	h.large.Each(func(addr pmem.PAddr, _ uint64) {
		if !marked[addr] {
			leaked = append(leaked, addr)
		}
	})
	sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
	for _, addr := range leaked {
		_ = h.large.Free(c, 0, addr, false)
	}
}
