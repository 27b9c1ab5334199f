package slab

import (
	"fmt"
	"sort"

	"nvalloc/internal/bitfit"
	"nvalloc/internal/interleave"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

// CanMorphTo reports whether the slab can be transformed to newClass,
// its bitmap laid out over stripes stripes, without the new metadata
// region (header + index table + new bitmap) overlapping any live block,
// and without exceeding the index table's 15-bit block-index capacity.
func (s *Slab) CanMorphTo(newClass, stripes int) bool {
	s.checkBuilt()
	if s.OldClass >= 0 || newClass == s.Class {
		return false
	}
	// Blocks sitting in tcaches are volatile-reserved; morphing would
	// reassign them, so a slab with cached blocks is not a candidate.
	if s.Reserved > 0 {
		return false
	}
	live := s.liveIndices()
	if len(live) > IdxCapEntries {
		return false
	}
	_, _, newDataOff := geometry(newClass, stripes)
	for _, idx := range live {
		if idx > int(idxIndexMask) {
			return false
		}
		if uint32(idx)*s.BlockSize+s.DataOff < newDataOff {
			return false
		}
	}
	return true
}

func (s *Slab) liveIndices() []int {
	live := make([]int, 0, s.Allocated)
	for idx := 0; idx < s.Blocks; idx++ {
		if s.bitTest(idx) {
			live = append(live, idx)
		}
	}
	return live
}

func (s *Slab) persistFlag(c *pmem.Ctx, flag uint32, persist bool) {
	// The flag word carries its own 16-bit CRC (it is excluded from the
	// header checksum so that morph commits stay single-word atomic): a
	// flipped flag bit must read as corruption, not as a phantom
	// in-flight morph whose "undo" would destroy the live geometry.
	s.dev.WriteU32(s.Base+hFlag, pmem.SealU32(flag))
	if persist {
		c.Flush(pmem.CatMeta, s.Base+hFlag, 4)
		c.Fence()
	}
}

// MorphTo transforms the slab to newClass following the paper's three
// crash-consistent steps, each sealed by an atomic flag update:
//
//	step 1: persist old_size_class, old_data_offset and the old stripe
//	        count (flag 1)
//	step 2: persist the index table of live old blocks (flag 2)
//	step 3: persist the new size_class, data_offset, stripe count,
//	        checksum and bitmap, then set flag 3 (slab_in)
//
// The new bitmap is laid out over stripes stripes — the heap's layout for
// slabs it formats now, which need not be the one this slab was formatted
// with. A crash with flag 1 or 2 is undone by Open; flag 3 is the
// completed transform. Every flag transition is a single 8-byte-atomic
// word update (the flag shares its word with hDataOff, so the commit
// carries the geometry switch atomically).
func (s *Slab) MorphTo(c *pmem.Ctx, newClass, stripes int, persist bool) error {
	if !s.CanMorphTo(newClass, stripes) {
		return fmt.Errorf("slab %#x: cannot morph class %d -> %d", s.Base, s.Class, newClass)
	}
	live := s.liveIndices()
	oldClass, oldDataOff, oldSize := s.Class, s.DataOff, s.BlockSize

	// Step 1: stash the original geometry.
	s.dev.WriteU32(s.Base+hOldClass, uint32(oldClass))
	s.dev.WriteU32(s.Base+hOldDataOff, oldDataOff)
	s.dev.WriteU32(s.Base+hOldLive, uint32(len(live))|uint32(s.m.Stripes())<<oldStripesShift)
	if persist {
		c.Flush(pmem.CatMeta, s.Base, pmem.LineSize)
	}
	s.persistFlag(c, 1, persist)

	// Step 2: write the index table (live old blocks, state allocated) and
	// zero the remaining slots, so stale entries from an earlier slab_in
	// incarnation can never resurface as phantom live blocks.
	for slot, idx := range live {
		s.dev.WriteU16(s.Base+pmem.PAddr(idxBase+2*slot), uint16(idx)|idxAllocated)
	}
	s.dev.Zero(s.Base+pmem.PAddr(idxBase+2*len(live)), idxBytes-2*len(live))
	if persist {
		c.Flush(pmem.CatMeta, s.Base+idxBase, idxBytes)
	}
	s.persistFlag(c, 2, persist)

	// Step 3: install the new geometry and bitmap.
	blocks, bitmapBase, dataOff := geometry(newClass, stripes)
	newBlockSize := sizeclass.Size(newClass)
	m := interleave.New(blocks, 1, stripes, pmem.LineSize)
	s.dev.Zero(s.Base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))

	cntBlock := make([]uint16, blocks)
	oldIdx := make(map[int]int, len(live))
	free := bitfit.New(blocks)
	allocated := 0
	for slot, idx := range live {
		oldIdx[idx] = slot
		lo := int64(oldDataOff) + int64(idx)*int64(oldSize)
		hi := lo + int64(oldSize) - 1
		nbLo := (lo - int64(dataOff)) / int64(newBlockSize)
		nbHi := (hi - int64(dataOff)) / int64(newBlockSize)
		for nb := nbLo; nb <= nbHi && nb < int64(blocks); nb++ {
			if nb < 0 {
				continue
			}
			if cntBlock[nb] == 0 {
				free.Set(int(nb))
				allocated++
			}
			cntBlock[nb]++
		}
	}
	// Persist the new bitmap image from the volatile bits.
	for nb := 0; nb < blocks; nb++ {
		if free.Test(nb) {
			off := m.BitOffset(nb)
			a := s.Base + pmem.PAddr(bitmapBase) + pmem.PAddr(off/8)
			s.dev.WriteU8(a, s.dev.ReadU8(a)|1<<(off%8))
		}
	}
	s.dev.WriteU32(s.Base+hClass, uint32(newClass))
	s.dev.WriteU32(s.Base+hDataOff, dataOff)
	s.dev.WriteU32(s.Base+hStripes, uint32(stripes))
	s.dev.WriteU32(s.Base+hChecksum, headerCRC(uint32(newClass), dataOff, uint32(stripes)))
	if persist {
		c.Flush(pmem.CatMeta, s.Base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))
		c.Flush(pmem.CatMeta, s.Base, pmem.LineSize)
		c.Fence()
	}
	s.persistFlag(c, flagSlabIn, persist) // transformation complete
	if persist {
		// The whole new bitmap is on media; lines still marked for
		// write-back belong to the old geometry, which is gone.
		s.dirty = 0
	}

	// Install the volatile view.
	s.Class = newClass
	s.BlockSize = newBlockSize
	s.Blocks = blocks
	s.DataOff = dataOff
	s.bitmapBase = bitmapBase
	s.snapAt = nil // sized to the old bitmap
	s.m = m
	s.lay = m.Table()
	s.free = free
	s.fresh = false
	s.resBits = make([]uint64, (blocks+63)/64)
	s.Allocated = allocated
	s.OldClass = oldClass
	s.OldDataOff = oldDataOff
	s.CntSlab = len(live)
	s.oldIdx = oldIdx
	s.cntBlock = cntBlock
	s.publishGeom()
	return nil
}

// OldBlockIndex maps addr to a live old-class block index, or -1.
func (s *Slab) OldBlockIndex(addr pmem.PAddr) int {
	if s.OldClass < 0 {
		return -1
	}
	oldSize := int64(sizeclass.Size(s.OldClass))
	off := int64(addr) - int64(s.Base) - int64(s.OldDataOff)
	if off < 0 || off%oldSize != 0 {
		return -1
	}
	idx := int(off / oldSize)
	if _, ok := s.oldIdx[idx]; !ok {
		return -1
	}
	return idx
}

// OverlapCount returns how many live old-class blocks occupy new-class
// block idx (0 for regular slabs).
func (s *Slab) OverlapCount(idx int) int {
	if s.cntBlock == nil || idx < 0 || idx >= len(s.cntBlock) {
		return 0
	}
	return int(s.cntBlock[idx])
}

// OldIndices returns the live old-class block indices of a slab_in, in
// ascending order: a caller that frees them in turn (the GC variant's
// sweep) flushes, and charges, the same sequence every run.
func (s *Slab) OldIndices() []int {
	out := make([]int, 0, len(s.oldIdx))
	for idx := range s.oldIdx {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// OldBlockSize returns the block size of the slab's old class (0 when
// the slab is not a slab_in).
func (s *Slab) OldBlockSize() uint64 {
	if s.OldClass < 0 {
		return 0
	}
	return uint64(sizeclass.Size(s.OldClass))
}

// OldBlockAddr returns the address of old-class block idx.
func (s *Slab) OldBlockAddr(idx int) pmem.PAddr {
	return s.Base + pmem.PAddr(s.OldDataOff) + pmem.PAddr(idx)*pmem.PAddr(sizeclass.Size(s.OldClass))
}

// FreeOldBlock releases a block_before: every new-class block it alone
// occupied becomes allocatable, then its index-table state is set to free
// and persisted, and the occupancy counters are updated. The index-table
// word is the free's commit point and goes last: a crash before it leaves
// the block live — Open pins the new-class blocks under a live index entry
// again, whatever their bits say — so the free either did not happen or,
// for a caller that logged it, is simply run again by replay; nothing is
// left allocated that no block covers. It reports whether the slab just
// finished morphing (no old blocks remain), in which case the caller
// reinserts it into the LRU list as a regular slab.
func (s *Slab) FreeOldBlock(c *pmem.Ctx, idx int, persist bool) (done bool, err error) {
	s.checkBuilt() // before cntBlock changes: the bits it unpins are cleared below
	slot, ok := s.oldIdx[idx]
	if !ok {
		return false, fmt.Errorf("slab %#x: free of unknown old block %d", s.Base, idx)
	}
	oldSize := int64(sizeclass.Size(s.OldClass))
	lo := int64(s.OldDataOff) + int64(idx)*oldSize
	hi := lo + oldSize - 1
	nbLo := (lo - int64(s.DataOff)) / int64(s.BlockSize)
	nbHi := (hi - int64(s.DataOff)) / int64(s.BlockSize)
	for nb := nbLo; nb <= nbHi && nb < int64(s.Blocks); nb++ {
		if nb < 0 {
			continue
		}
		s.cntBlock[nb]--
		if s.cntBlock[nb] == 0 {
			s.FreeBlock(c, int(nb), persist)
			// Fenced per bit: sharing one trailing fence with the index
			// word below would need its own crashmc trace (demotion is
			// not part of FenceElisionTrace).
			if persist {
				c.Fence()
			}
		}
	}
	a := s.Base + pmem.PAddr(idxBase+2*slot)
	s.dev.WriteU16(a, uint16(idx)) // allocated bit cleared
	if persist {
		c.Flush(pmem.CatMeta, a, 2)
		c.Fence()
	}
	delete(s.oldIdx, idx)
	s.CntSlab--

	if s.CntSlab == 0 {
		// The slab_in becomes a regular slab_after. The demotion is a
		// single atomic flag commit; the old-class fields go stale but are
		// dead at flag 0 (Open ignores them entirely).
		s.persistFlag(c, flagStable, persist)
		s.OldClass = -1
		s.OldDataOff = 0
		s.oldIdx = nil
		s.cntBlock = nil
		s.publishGeom()
		return true, nil
	}
	return false, nil
}

// oldGeom is the pre-morph geometry a slab's old-class header fields
// describe.
type oldGeom struct {
	class   int
	dataOff uint32
	stripes int
	live    int // index table entry count
}

// validateOldFields checks the old-class header fields semantically (they
// are excluded from the header checksum so that flag commits stay
// single-word). A morph written before the old stripe count was recorded
// left that half-word zero and kept the slab's stripe count, so zero reads
// as stripes, the count the header holds now.
func validateOldFields(dev pmem.Mem, base pmem.PAddr, stripes int) (oldGeom, error) {
	oldClassRaw := dev.ReadU32(base + hOldClass)
	live := dev.ReadU32(base + hOldLive)
	old := oldGeom{
		dataOff: dev.ReadU32(base + hOldDataOff),
		stripes: int(live >> oldStripesShift),
		live:    int(live & (1<<oldStripesShift - 1)),
	}
	if old.stripes == 0 {
		old.stripes = stripes
	}
	if oldClassRaw == ClassNone || int(oldClassRaw) >= sizeclass.NumClasses() {
		return old, pmem.Corrupt("slab", base, "old class %#x out of range", oldClassRaw)
	}
	old.class = int(oldClassRaw)
	if old.stripes > 64 {
		return old, pmem.Corrupt("slab", base, "old stripe count %d out of range", old.stripes)
	}
	if _, _, wantOff := geometry(old.class, old.stripes); wantOff != old.dataOff {
		return old, pmem.Corrupt("slab", base, "old data offset %d inconsistent with class %d (want %d)", old.dataOff, old.class, wantOff)
	}
	if old.live > IdxCapEntries {
		return old, pmem.Corrupt("slab", base, "old live count %d exceeds index capacity %d", old.live, IdxCapEntries)
	}
	return old, nil
}

// Open rebuilds an unbuilt vslab from the persistent header at base,
// undoing any partially completed morph (flag 1 or 2) first. Every header
// field is validated — geometry against the header checksum, old-class
// fields semantically — so a torn or corrupted image yields a
// CorruptError, not a panic or a silently wrong heap. A slab_in's index
// table is read too: it is header state (which old blocks are live, which
// new blocks they pin), and a slab_in whose last old block was freed
// finishes its demotion here, on media. The bitmap is not read: Build
// does that at the slab's first touch. Open charges c the per-slab
// constant of recovery, Build the per-block part.
func Open(dev pmem.Mem, c *pmem.Ctx, base pmem.PAddr) (*Slab, error) {
	return open(dev, c, base, true)
}

// Inspect is Open without its writes, for a caller that reads many headers
// at once and repairs afterwards, in an order of its own. It validates the
// header exactly as Open does, returns the same errors and charges the same
// constant. A slab Open would repair — a morph cut at flag 1 or 2, or a
// slab_in whose demotion must finish — comes back nil with no error and
// nothing charged: the caller Opens it.
func Inspect(dev pmem.Mem, c *pmem.Ctx, base pmem.PAddr) (*Slab, error) {
	return open(dev, c, base, false)
}

func open(dev pmem.Mem, c *pmem.Ctx, base pmem.PAddr, repair bool) (*Slab, error) {
	if uint64(base)+Size > dev.Size() || base%Size != 0 {
		return nil, pmem.Corrupt("slab", base, "slab extent out of device bounds or misaligned")
	}
	if dev.ReadU32(base+hMagic) != Magic {
		return nil, pmem.Corrupt("slab", base, "bad magic %#x", dev.ReadU32(base+hMagic))
	}
	flag, ok := pmem.UnsealU32(dev.ReadU32(base + hFlag))
	if !ok {
		return nil, pmem.Corrupt("slab", base+hFlag, "morph flag word fails seal check")
	}
	stripes := int(dev.ReadU32(base + hStripes))
	if stripes < 1 || stripes > 64 {
		return nil, pmem.Corrupt("slab", base, "stripe count %d out of range", stripes)
	}
	if flag > flagSlabIn {
		return nil, pmem.Corrupt("slab", base, "morph flag %d out of range", flag)
	}
	if flag == flagStep1 || flag == flagStep2 {
		if !repair {
			return nil, nil
		}
		// The undo restores the old stripe count with the old geometry.
		var err error
		if stripes, err = undoMorph(dev, c, base, flag, stripes); err != nil {
			return nil, err
		}
	}

	class := int(dev.ReadU32(base + hClass))
	dataOff := dev.ReadU32(base + hDataOff)
	if class >= sizeclass.NumClasses() {
		return nil, pmem.Corrupt("slab", base, "class %d out of range", class)
	}
	if got, want := dev.ReadU32(base+hChecksum), headerCRC(uint32(class), dataOff, uint32(stripes)); got != want {
		return nil, pmem.Corrupt("slab", base, "header checksum %#x, want %#x", got, want)
	}
	blocks, bitmapBase, wantDataOff := geometry(class, stripes)
	if wantDataOff != dataOff {
		return nil, pmem.Corrupt("slab", base, "inconsistent geometry (dataOff %d want %d)", dataOff, wantDataOff)
	}
	s := &Slab{
		Base:       base,
		Class:      class,
		BlockSize:  sizeclass.Size(class),
		Blocks:     blocks,
		DataOff:    dataOff,
		dev:        dev,
		m:          interleave.New(blocks, 1, stripes, pmem.LineSize),
		bitmapBase: bitmapBase,
		OldClass:   -1,
	}
	s.lay = s.m.Table()

	// At any flag other than 3 the old fields are dead (a completed
	// demotion or an undone morph leaves them stale on purpose).
	if flag == flagSlabIn {
		if err := s.readIndexTable(stripes); err != nil {
			return nil, err
		}
		if s.CntSlab == 0 && !repair {
			return nil, nil
		}
	}
	c.Charge(pmem.CatSearch, 20)
	if flag == flagSlabIn && s.CntSlab == 0 {
		// All old blocks were already freed; finish the demotion that
		// may have been cut short by the crash.
		s.persistFlag(c, flagStable, true)
		s.OldClass = -1
		s.OldDataOff = 0
		s.oldIdx = nil
		s.cntBlock = nil
	}
	s.publishGeom()
	return s, nil
}

// readIndexTable reconstructs a slab_in's cnt_slab and cnt_block from its
// index table. stripes is the stripe count the header holds.
func (s *Slab) readIndexTable(stripes int) error {
	dev, base := s.dev, s.Base
	old, err := validateOldFields(dev, base, stripes)
	if err != nil {
		return err
	}
	oldBlocks, _, _ := geometry(old.class, old.stripes)
	s.OldClass = old.class
	s.OldDataOff = old.dataOff
	s.oldIdx = make(map[int]int)
	s.cntBlock = make([]uint16, s.Blocks)
	oldSize := int64(sizeclass.Size(s.OldClass))
	for slot := 0; slot < old.live; slot++ {
		e := dev.ReadU16(base + pmem.PAddr(idxBase+2*slot))
		if e&idxAllocated == 0 {
			continue
		}
		idx := int(e & idxIndexMask)
		if idx >= oldBlocks {
			return pmem.Corrupt("slab", base, "index entry %d names old block %d beyond %d", slot, idx, oldBlocks)
		}
		if _, dup := s.oldIdx[idx]; dup {
			return pmem.Corrupt("slab", base, "old block %d appears twice in index table", idx)
		}
		s.oldIdx[idx] = slot
		s.CntSlab++
		lo := int64(s.OldDataOff) + int64(idx)*oldSize
		hi := lo + oldSize - 1
		nbLo := (lo - int64(s.DataOff)) / int64(s.BlockSize)
		nbHi := (hi - int64(s.DataOff)) / int64(s.BlockSize)
		for nb := nbLo; nb <= nbHi && nb < int64(s.Blocks); nb++ {
			if nb >= 0 {
				s.cntBlock[nb]++
			}
		}
	}
	return nil
}

// Build makes an opened slab's block states readable, the first time
// something needs them: it rebuilds the volatile bitmap (leaf + summary)
// and the allocated count from the persistent bitmap, read through one
// view of the region and the shared bit-layout table, and charges c the
// per-block part of recovery: one nanosecond per bitmap byte (Blocks/8),
// less the bytes PersistedAllocated already charged. It writes nothing
// persistent. On a slab already built it does nothing. Caller holds the
// slab lock, or is recovery, which runs before any thread exists; c may be
// nil for a reader outside every thread's clock.
func (s *Slab) Build(c *pmem.Ctx) {
	if s.free == nil { // inlined: the hot paths call Build on every commit
		s.build(c)
	}
}

func (s *Slab) build(c *pmem.Ctx) {
	free := bitfit.New(s.Blocks)
	allocated := 0
	bitmap := s.dev.Bytes(s.Base+pmem.PAddr(s.bitmapBase), int(s.DataOff-s.bitmapBase))
	for idx, off := range s.lay.Bit {
		if bitmap[off>>3]&(1<<(off&7)) != 0 {
			free.Set(idx)
			allocated++
		}
	}
	// New blocks pinned by old-class data whose bitmap bits never persisted
	// (the GC variant defers bitmap flushes) must read as unavailable, or a
	// later FreeOldBlock would double-free them.
	for nb, cnt := range s.cntBlock {
		if cnt > 0 && !free.Test(nb) {
			free.Set(nb)
			allocated++
		}
	}
	s.free, s.resBits, s.Allocated = free, make([]uint64, (s.Blocks+63)/64), allocated
	if c != nil {
		c.Charge(pmem.CatSearch, int64(s.Blocks/8-s.bytesRead))
	}
}

// PersistedAllocated reports what Build would make block idx of an unbuilt
// slab: allocated if its persisted bit is set or an old-class block still
// pins it. It reads the one bitmap byte that holds the bit and charges it
// at Build's rate, 1 ns, until the charges reach what Build would have
// charged, after which reads are free; Build then charges only the rest.
// So checking some blocks and then building costs what building alone
// does. It writes nothing. Caller holds the slab lock, or is recovery.
func (s *Slab) PersistedAllocated(c *pmem.Ctx, idx int) bool {
	if s.bytesRead < s.Blocks/8 {
		s.bytesRead++
		c.Charge(pmem.CatSearch, 1)
	}
	if s.cntBlock != nil && s.cntBlock[idx] > 0 {
		return true
	}
	off := int(s.lay.Bit[idx])
	return s.dev.ReadU8(s.Base+pmem.PAddr(s.bitmapBase)+pmem.PAddr(off/8))&(1<<(off%8)) != 0
}

// undoMorph rolls back a morph interrupted at flag 1 or 2 and returns the
// stripe count of the geometry it leaves. At flag 1 the original bitmap
// and geometry are untouched, so clearing the flag is the whole undo. At
// flag 2 the new bitmap may be partially written, so the old bitmap is
// reconstructed from the index table (which is exactly why the index table
// exists); the restored geometry and its checksum are persisted while the
// flag still reads 2 — a crash mid-undo simply redoes it — and only then
// does a separate single-word commit clear the flag. stripes is what the
// header holds, which at flag 2 may already be the new count.
func undoMorph(dev pmem.Mem, c *pmem.Ctx, base pmem.PAddr, flag uint32, stripes int) (int, error) {
	old, err := validateOldFields(dev, base, stripes)
	if err != nil {
		return 0, err
	}
	oldClass, oldDataOff := old.class, old.dataOff
	stripes = old.stripes

	if flag == flagStep2 {
		// Restore geometry and bitmap of the original class.
		blocks, bitmapBase, dataOff := geometry(oldClass, stripes)
		var live []int
		for slot := 0; slot < old.live; slot++ {
			e := dev.ReadU16(base + pmem.PAddr(idxBase+2*slot))
			if e&idxAllocated != 0 {
				idx := int(e & idxIndexMask)
				if idx >= blocks {
					return 0, pmem.Corrupt("slab", base, "undo: index entry %d names block %d beyond %d", slot, idx, blocks)
				}
				live = append(live, idx)
			}
		}
		sort.Ints(live)
		m := interleave.New(blocks, 1, stripes, pmem.LineSize)
		dev.Zero(base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))
		for _, idx := range live {
			off := m.BitOffset(idx)
			a := base + pmem.PAddr(bitmapBase) + pmem.PAddr(off/8)
			dev.WriteU8(a, dev.ReadU8(a)|1<<(off%8))
		}
		dev.WriteU32(base+hClass, uint32(oldClass))
		dev.WriteU32(base+hDataOff, oldDataOff)
		dev.WriteU32(base+hStripes, uint32(stripes))
		dev.WriteU32(base+hChecksum, headerCRC(uint32(oldClass), oldDataOff, uint32(stripes)))
		c.Flush(pmem.CatMeta, base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))
		c.Flush(pmem.CatMeta, base, pmem.LineSize)
		c.Fence()
	}
	// Commit the undo with a single-word flag update. The old-class fields
	// stay stale; they are dead at flag 0.
	dev.WriteU32(base+hFlag, flagStable)
	c.Flush(pmem.CatMeta, base+hFlag, 4)
	c.Fence()
	return stripes, nil
}
