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
// are trusted: magic, checksum and the region layout. A zeroed,
// truncated or bit-flipped image yields a typed CorruptError here
// instead of a panic deeper into recovery.
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
	if err := validateSuper(dev); err != nil {
		return nil, 0, err
	}
	if cfg.Arenas <= 0 {
		cfg.Arenas = 8
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

	if crashed && cfg.Persist != PersistNone {
		// A WAL-bearing style must consume its logs after a crash no
		// matter what its recovery style advertises: an in-flight root
		// publish (OpPublish) is recorded nowhere else, so skipping
		// replay would lose it. Every region is swept — per-thread
		// arenas of the crashed run are not instantiated here, but their
		// rings still hold entries.
		// Only the rings the configuration actually uses are charged —
		// the rest of the fixed 65-slot reservation is a layout artifact
		// this Go model shares across arena models, and nvm_malloc's
		// deferred profile keeps its nearly-free open. The uncharged
		// sweep runs on a side context that is never merged.
		side := dev.NewCtx()
		charged := func(slot int) bool {
			switch {
			case cfg.Recovery == RecoverDeferred:
				return false
			case cfg.Model == ArenaGlobal:
				return slot <= 1
			case cfg.Model == ArenaPerCore:
				return slot <= cfg.Arenas
			default:
				// Per-thread: any slot may belong to a crashed thread.
				return true
			}
		}
		for slot := 0; slot <= maxArenas; slot++ {
			rc := side
			if charged(slot) {
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
		h.rebuildFreelists()
	}

	largeWAL, err := walog.New(dev.Mem(), walBase, walEntriesPerArena, 1)
	if err != nil {
		return nil, 0, err
	}
	h.serveRing(0, largeWAL)
	h.largeWAL = largeWAL
	h.nextWAL = 1
	if cfg.Model != ArenaPerThread {
		n := cfg.Arenas
		if cfg.Model == ArenaGlobal {
			n = 1
		}
		for i := 0; i < n; i++ {
			h.arenas = append(h.arenas, h.newArena())
		}
	}

	// Assign slab owners round-robin, in discovery (address) order.
	next := 0
	for _, s := range slabs {
		var owner *barena
		if len(h.arenas) > 0 {
			owner = h.arenas[next%len(h.arenas)]
		} else {
			// Per-thread model with no threads yet: create a recovery
			// arena that future slabs share until threads register.
			owner = h.newArena()
			h.arenas = append(h.arenas, owner)
		}
		next++
		s.owner = owner
		if s.allocated < s.blocks {
			owner.freelistPush(s)
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
	blocks, dataOff := bslabGeometry(&h.cfg, class)
	s := &bslab{
		base:      base,
		class:     class,
		blockSize: sizeclass.Size(class),
		blocks:    blocks,
		dataOff:   dataOff,
		vbits:     bitfit.New(blocks),
		freeHeadV: -1,
	}
	twoByte := h.cfg.twoByteMeta()
	for idx := 0; idx < blocks; idx++ {
		var set bool
		if twoByte {
			set = h.dev.ReadU16(base+bsMetaOff+pmem.PAddr(idx*2))&(1<<15) != 0
		} else {
			set = h.dev.ReadU8(base+bsMetaOff+pmem.PAddr(idx/8))&(1<<(idx%8)) != 0
		}
		if set {
			s.vset(idx)
			s.allocated++
		}
	}
	if h.cfg.Recovery == RecoverDeferred {
		// nvm_malloc defers metadata reconstruction to the runtime
		// deallocation path; the scan cost is not paid at open time.
		c.Charge(pmem.CatSearch, 20)
	} else {
		c.Charge(pmem.CatSearch, int64(blocks)/8+20)
	}
	if h.cfg.Meta == MetaFreelist {
		s.rebuildFreelist()
	}
	return s, nil
}

func (s *bslab) rebuildFreelist() {
	s.vnext = make([]int, s.blocks)
	s.freeHeadV = -1
	for idx := s.blocks - 1; idx >= 0; idx-- {
		if !s.vtest(idx) {
			s.vnext[idx] = s.freeHeadV
			s.freeHeadV = idx
		}
	}
}

func (h *Heap) rebuildFreelists() {
	if h.cfg.Meta != MetaFreelist {
		return
	}
	h.slabs.Range(func(_ pmem.PAddr, s *bslab) bool {
		s.rebuildFreelist()
		return true
	})
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
		if s.vtest(idx) != want {
			if want {
				s.vset(idx)
				s.allocated++
			} else {
				s.vclear(idx)
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
				s.vset(idx)
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
