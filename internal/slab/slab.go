// Package slab implements NVAlloc's slab structure for small allocations:
// 64 KiB slab extents with a persistent header, a block bitmap spread over
// the stripe count its header records (the interleaved mapping of the
// paper's Section 5.1; one stripe is the plain sequential bitmap), a
// volatile vslab mirror for fast free-block search, and the slab morphing
// state machine (Section 5.2) that crash-consistently transforms a
// mostly-empty slab into another size class while old live blocks remain
// co-located.
//
// Persistent layout of a slab (offsets relative to the slab base, which
// is always Size-aligned):
//
//	[0,64)                fixed header (one cache line)
//	[64,64+idxBytes)      index table region (fixed reservation, used
//	                      only while the slab is a slab_in)
//	[64+idxBytes,dataOff) block bitmap, spread over `stripes` stripes
//	[dataOff, Size)       blocks
//
// The index-table region is a fixed reservation in every slab so that
// morph step 2 (writing the table) never overlaps the previous bitmap:
// that is what makes the undo from a crash at flag 1 sound — the old
// bitmap is still intact. The reservation costs 1 KiB of a 64 KiB slab.
package slab

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync/atomic"

	"nvalloc/internal/bitfit"
	"nvalloc/internal/interleave"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// headerCRC computes the header checksum over the geometry fields only
// (magic, class, dataOff, stripes). The morph flag and the old-class
// fields are deliberately excluded: every flag transition must remain a
// single-word atomic commit (no companion CRC update that could tear
// against it), and the old fields are validated semantically by Open
// instead.
func headerCRC(class, dataOff, stripes uint32) uint32 {
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:], Magic)
	binary.LittleEndian.PutUint32(b[4:], class)
	binary.LittleEndian.PutUint32(b[8:], dataOff)
	binary.LittleEndian.PutUint32(b[12:], stripes)
	return crc32.Checksum(b[:], crcTable)
}

// Size is the slab size used throughout the paper.
const Size = 64 << 10

// Header field offsets within the fixed header line.
const (
	hMagic      = 0  // u32
	hClass      = 4  // u32 size class index
	hDataOff    = 8  // u32
	hFlag       = 12 // u32 morph step flag (see flag* below)
	hOldClass   = 16 // u32 (ClassNone when not a slab_in)
	hOldDataOff = 20 // u32
	hOldLive    = 24 // u32: index table entry count | old stripe count << oldStripesShift
	hStripes    = 28 // u32 bitmap stripe count
	hChecksum   = 32 // u32 CRC32C over (magic, class, dataOff, stripes)
)

// oldStripesShift places the pre-morph stripe count in the upper half of
// hOldLive (the entry count is at most IdxCapEntries): a morph lays the new
// bitmap out over the heap's current stripe count, which may differ from
// the one the slab was formatted with, and the undo needs the old one.
const oldStripesShift = 16

// Morph flag values. Every transition is a single 8-byte-atomic header
// word update (hDataOff and hFlag share one word, so a flag commit can
// carry a data-offset change atomically with it).
const (
	flagStable = 0 // regular slab; old-class fields are meaningless
	flagStep1  = 1 // old geometry stashed; bitmap still the old class's
	flagStep2  = 2 // index table written; bitmap still the old class's
	flagSlabIn = 3 // morph complete; index table tracks live old blocks
)

// IdxCapEntries is the fixed index-table capacity: the maximum number of
// live old blocks a slab may carry into a morph.
const IdxCapEntries = 512

// idxBase/idxBytes locate the fixed index-table region.
const (
	idxBase  = pmem.LineSize
	idxBytes = IdxCapEntries * 2
)

// Magic identifies a formatted slab header.
const Magic = 0x42414C53 // "SLAB"

// ClassNone marks the old-class header fields as unset.
const ClassNone = 0xFFFFFFFF

// Index table entry: bit 15 = allocated, bits 0..14 = old block index.
const (
	idxAllocated = 1 << 15
	idxIndexMask = idxAllocated - 1
)

// Slab is the volatile vslab: the in-DRAM mirror of one persistent slab.
// Recovery reconstructs it in two steps: Open reads the persistent header,
// and Build reads the persistent bitmap the first time something needs it.
// Until then the slab is unbuilt: its geometry and morph state are known,
// its block states are not, and every method that would read them panics
// rather than report a live block as free.
//
// A block can be in three states: free, reserved (sitting in some
// thread's tcache: unavailable to others but still free in the
// persistent bitmap), or allocated (persistent bit set). Allocated
// counts persistent allocations; Reserved counts tcache residents; the
// volatile bitmap marks both as unavailable.
type Slab struct {
	Base      pmem.PAddr
	Class     int
	BlockSize uint32
	Blocks    int
	DataOff   uint32
	Allocated int
	Reserved  int

	// A slab has no mutex of its own: "the slab lock" below is the lock its
	// owner serializes it with (in core, the owning arena's resource).

	// geom is the atomically published snapshot of the slab's geometry.
	// Each snapshot is immutable; morphing (and demotion back to a
	// stable slab) installs a fresh pointer under the slab lock. Lock-free
	// readers resolve block indices against a snapshot and revalidate
	// pointer identity under the slab lock before acting on the index.
	geom atomic.Pointer[Geom]

	dev        pmem.Mem
	m          interleave.Mapping
	lay        *interleave.Table // m's shared table
	bitmapBase uint32
	free       *bitfit.Bitmap // logical-index bitmap: 1 = allocated or reserved (leaf + summary); nil until Build
	bytesRead  int            // bitmap bytes PersistedAllocated charged before Build (at most Blocks/8)
	resBits    []uint64       // logical-index bitmap: 1 = reserved in a tcache

	// dirty is the write-back set of the LOG variant: bit i means line i of
	// the bitmap region may differ from what is on media, because a
	// WAL-covered commit wrote it in the cache image without flushing. A
	// bitmap spans at most 64 lines (the 64-stripe layout of the smallest
	// class; 18 with the default six stripes), so one word covers it.
	// snapAt[i] locates, for a dirty line i, its bytes as they were when it
	// went dirty — which is what the media holds, every other line being
	// clean — so FlushDirty can skip a line whose writes cancelled out. The
	// snapshots themselves live in a pool the caller of MarkDirty owns (the
	// arena whose ring covers the writes): it grows by one line per line
	// dirtied and is emptied at every write-back, so it is bounded by one
	// checkpoint period, not by the number of slabs. Both fields are guarded
	// by that arena's resource, like the WAL whose checkpoint drains them.
	dirty  uint64
	snapAt []uint32

	// Bump-pointer fast path for freshly formatted slabs: while fresh is
	// true no block has ever been released, so the occupied blocks are
	// exactly the prefix [0, bump) and Reserve can carve [bump, bump+n)
	// without any bitmap search. Any operation that frees or force-sets a
	// bit (FreeBlock, Unreserve, AllocBlock during replay) clears fresh;
	// it is never set again for this slab.
	fresh bool
	bump  int

	// Morphing state (slab_in only).
	OldClass   int // -1 when not morphed
	OldDataOff uint32
	CntSlab    int         // live old blocks remaining
	oldIdx     map[int]int // old block index -> index table slot
	cntBlock   []uint16    // per new block: old blocks occupying it

	// Intrusive links managed by the owning arena.
	LRUPrev, LRUNext   *Slab // arena LRU list (morph candidates)
	FreePrev, FreeNext *Slab // per-class freelist of partially full slabs
	Owner              int   // arena index owning this slab
	MorphCand          bool  // queued in the arena's morph-candidate list
	Dead               bool  // released back to the large allocator
}

// Geom is an immutable snapshot of a slab's geometry, published with an
// atomic pointer so the free path can resolve a block index without
// taking the slab lock. A slab's geometry only changes under the slab
// lock (morph to a new class, or demotion of a slab_in back to a stable
// slab), and every change installs a *new* Geom: pointer identity is the
// revalidation token. SlabIn snapshots route to the slow path because
// old-class block membership cannot be decided geometrically (an
// old-grid-aligned address may also start a valid new-class block).
type Geom struct {
	Class     int
	BlockSize uint32
	Blocks    int
	DataOff   uint32
	SlabIn    bool
	m         interleave.Mapping
	lay       *interleave.Table
}

// BlockIndex maps an address inside the slab at base to its logical
// block index under this geometry, or -1 if it is not a block start.
func (g *Geom) BlockIndex(base, addr pmem.PAddr) int {
	off := int64(addr) - int64(base) - int64(g.DataOff)
	if off < 0 || off%int64(g.BlockSize) != 0 {
		return -1
	}
	idx := int(off / int64(g.BlockSize))
	if idx >= g.Blocks {
		return -1
	}
	return idx
}

// Stripe returns the bitmap stripe (and thus metadata cache line group) of
// logical block idx under this geometry; the tcache uses it to pick a
// sub-tcache.
func (g *Geom) Stripe(idx int) int { return int(g.lay.Stripe[idx]) }

// publishGeom snapshots the current geometry fields. Called while the
// slab is still private (Format/Open) or under the slab lock (morph,
// demotion).
func (s *Slab) publishGeom() {
	s.geom.Store(&Geom{
		Class:     s.Class,
		BlockSize: s.BlockSize,
		Blocks:    s.Blocks,
		DataOff:   s.DataOff,
		SlabIn:    s.OldClass >= 0,
		m:         s.m,
		lay:       s.lay,
	})
}

// Geometry returns the current geometry snapshot (never nil for a slab
// produced by Format or Open).
func (s *Slab) Geometry() *Geom { return s.geom.Load() }

// geometry computes the block count, bitmap base and data offset for a
// slab of the given class. The fixed index-table reservation makes the
// layout independent of morph history.
func geometry(class, stripes int) (blocks int, bitmapBase, dataOff uint32) {
	bsize := int(sizeclass.Size(class))
	bitmapBase = uint32(idxBase + idxBytes)
	// Fixpoint: more blocks need a bigger bitmap, which lowers the data
	// offset capacity; two iterations always converge for 64 KiB slabs.
	blocks = (Size - int(bitmapBase)) / bsize
	for i := 0; i < 4; i++ {
		bm := interleave.New(blocks, 1, stripes, pmem.LineSize)
		d := (int(bitmapBase) + bm.SizeBytes() + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
		nb := (Size - d) / bsize
		if nb == blocks {
			dataOff = uint32(d)
			return blocks, bitmapBase, dataOff
		}
		blocks = nb
	}
	bm := interleave.New(blocks, 1, stripes, pmem.LineSize)
	dataOff = uint32((int(bitmapBase) + bm.SizeBytes() + pmem.LineSize - 1) &^ (pmem.LineSize - 1))
	return blocks, bitmapBase, dataOff
}

// BlocksPerSlab returns how many blocks a freshly formatted slab of the
// class holds with the given stripe count.
func BlocksPerSlab(class, stripes int) int {
	b, _, _ := geometry(class, stripes)
	return b
}

// Format initializes a fresh slab of the given class over a Size-aligned
// extent at base. When persist is true the header and bitmap are flushed
// (LOG variant); the GC variant persists the header only, leaving bitmap
// persistence to post-crash GC.
func Format(dev pmem.Mem, c *pmem.Ctx, base pmem.PAddr, class, stripes int, persist bool) *Slab {
	if base%Size != 0 {
		panic(fmt.Sprintf("slab: base %#x not %d-aligned", base, Size))
	}
	blocks, bitmapBase, dataOff := geometry(class, stripes)
	m := interleave.New(blocks, 1, stripes, pmem.LineSize)
	s := &Slab{
		Base:       base,
		Class:      class,
		BlockSize:  sizeclass.Size(class),
		Blocks:     blocks,
		DataOff:    dataOff,
		dev:        dev,
		m:          m,
		lay:        m.Table(),
		bitmapBase: bitmapBase,
		free:       bitfit.New(blocks),
		resBits:    make([]uint64, (blocks+63)/64),
		OldClass:   -1,
		fresh:      true,
	}
	dev.WriteU32(base+hMagic, Magic)
	dev.WriteU32(base+hClass, uint32(class))
	dev.WriteU32(base+hDataOff, dataOff)
	dev.WriteU32(base+hFlag, flagStable)
	dev.WriteU32(base+hOldClass, ClassNone)
	dev.WriteU32(base+hOldDataOff, 0)
	dev.WriteU32(base+hOldLive, 0)
	dev.WriteU32(base+hStripes, uint32(stripes))
	dev.WriteU32(base+hChecksum, headerCRC(uint32(class), dataOff, uint32(stripes)))
	dev.Zero(base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))
	c.Flush(pmem.CatMeta, base, pmem.LineSize)
	if persist {
		c.Flush(pmem.CatMeta, base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))
	}
	c.Fence()
	s.publishGeom()
	return s
}

// Quarantine reformats the header of a damaged slab in place as a
// stable slab of class 0 with every block marked allocated, so a
// subsequent Open accepts it without ever handing out one of its
// blocks. The payload bytes are untouched: quarantining turns a slab
// that would fail recovery into a permanent leak instead of a loss.
func Quarantine(dev pmem.Mem, c *pmem.Ctx, base pmem.PAddr, stripes int) {
	base &^= Size - 1
	_, bitmapBase, dataOff := geometry(0, stripes)
	dev.WriteU32(base+hMagic, Magic)
	dev.WriteU32(base+hClass, 0)
	dev.WriteU32(base+hDataOff, dataOff)
	dev.WriteU32(base+hFlag, flagStable)
	dev.WriteU32(base+hOldClass, ClassNone)
	dev.WriteU32(base+hOldDataOff, 0)
	dev.WriteU32(base+hOldLive, 0)
	dev.WriteU32(base+hStripes, uint32(stripes))
	dev.WriteU32(base+hChecksum, headerCRC(0, dataOff, uint32(stripes)))
	// All bitmap bytes set: every mapped bit reads as allocated.
	for i := bitmapBase; i < dataOff; i++ {
		dev.WriteU8(base+pmem.PAddr(i), 0xFF)
	}
	c.Flush(pmem.CatMeta, base, pmem.LineSize)
	c.Flush(pmem.CatMeta, base+pmem.PAddr(bitmapBase), int(dataOff-bitmapBase))
	c.Fence()
}

// Stripes returns the bitmap stripe count.
func (s *Slab) Stripes() int { return s.m.Stripes() }

// BlockAddr returns the persistent address of block idx.
func (s *Slab) BlockAddr(idx int) pmem.PAddr {
	return s.Base + pmem.PAddr(s.DataOff) + pmem.PAddr(idx)*pmem.PAddr(s.BlockSize)
}

// BlockIndex maps an address inside the slab's data region to its logical
// block index, or -1 if it is not a block start.
func (s *Slab) BlockIndex(addr pmem.PAddr) int {
	off := int64(addr) - int64(s.Base) - int64(s.DataOff)
	if off < 0 || off%int64(s.BlockSize) != 0 {
		return -1
	}
	idx := int(off / int64(s.BlockSize))
	if idx >= s.Blocks {
		return -1
	}
	return idx
}

// Built reports whether the slab's volatile bitmap exists: Format made it,
// or Build has run since Open.
func (s *Slab) Built() bool { return s.free != nil }

// checkBuilt guards every method that reads or changes block states. An
// unbuilt slab's zero counters and missing bitmap would read as "all
// free", so a caller that forgot to Build would hand out live blocks.
func (s *Slab) checkBuilt() {
	if s.free == nil {
		panic(unbuiltError(s.Base))
	}
}

// unbuiltError is checkBuilt's panic value: a type, not a formatted
// string, so that the guard stays small enough to inline into the hot
// paths it sits on.
type unbuiltError pmem.PAddr

func (e unbuiltError) Error() string {
	return fmt.Sprintf("slab %#x: block state used before Build", pmem.PAddr(e))
}

func (s *Slab) bitTest(idx int) bool {
	s.checkBuilt()
	return s.free.Test(idx)
}

// BlockAllocated reports whether block idx is marked unavailable in the
// volatile bitmap (allocated, or reserved in a tcache).
func (s *Slab) BlockAllocated(idx int) bool { return s.bitTest(idx) }

// BlockReserved reports whether block idx currently sits in a tcache
// (unavailable but not a live object).
func (s *Slab) BlockReserved(idx int) bool {
	s.checkBuilt()
	return s.resBits[idx/64]&(1<<(idx%64)) != 0
}

// writePersistentBit updates one interleaved bitmap bit in PM and, when
// persist is true, flushes its cache line (attributed to FlushMeta). Like
// every persistent-write primitive it never fences: durability follows
// flush order, and the operation that owns the crash-ordering argument
// issues the one trailing fence (core's commit for the allocation paths,
// the recovery sweeps and FreeOldBlock for their own bits).
func (s *Slab) writePersistentBit(c *pmem.Ctx, idx int, val, persist bool) {
	off := int(s.lay.Bit[idx])
	addr := s.Base + pmem.PAddr(s.bitmapBase) + pmem.PAddr(off/8)
	b := s.dev.ReadU8(addr)
	if val {
		b |= 1 << (off % 8)
	} else {
		b &^= 1 << (off % 8)
	}
	s.dev.WriteU8(addr, b)
	if persist {
		c.FlushU64(pmem.CatMeta, addr)
		// The eager flush carried the line's deferred bits along: it is
		// clean now, and its snapshot is no longer what the media holds.
		s.dirty &^= 1 << (off / (8 * pmem.LineSize))
	}
}

// bitmapLine returns the cache-image bytes of line i of the bitmap region
// (which starts on a line boundary).
func (s *Slab) bitmapLine(i int) []byte {
	return s.dev.Bytes(s.Base+pmem.PAddr(s.bitmapBase)+pmem.PAddr(i*pmem.LineSize), pmem.LineSize)
}

// MarkDirty announces that block idx's bitmap bit is about to be written
// without a flush. It must precede the write: a line going dirty is
// snapshotted, into pool, as the media still has it. It reports whether
// this is the slab's first dirty line since its last FlushDirty — the
// caller's cue to queue the slab for write-back. The same pool goes to
// FlushDirty, and may be emptied once every slab marked into it has been
// flushed.
func (s *Slab) MarkDirty(idx int, pool *[]byte) (first bool) {
	line := int(s.lay.Bit[idx]) / (8 * pmem.LineSize)
	if s.dirty&(1<<line) != 0 {
		return false
	}
	first = s.dirty == 0
	s.dirty |= 1 << line
	if s.snapAt == nil {
		s.snapAt = make([]uint32, (s.DataOff-s.bitmapBase+pmem.LineSize-1)/pmem.LineSize)
	}
	s.snapAt[line] = uint32(len(*pool) / pmem.LineSize)
	*pool = append(*pool, s.bitmapLine(line)...)
	return first
}

// FlushDirty writes back, in address order, every dirty line whose bytes
// differ from what the media holds — a block freed and allocated again
// between two write-backs leaves its line as it was and costs nothing —
// forgets them all, and reports whether it flushed any. It never fences
// (see writePersistentBit).
func (s *Slab) FlushDirty(c *pmem.Ctx, pool []byte) (flushed bool) {
	for m := s.dirty; m != 0; m &= m - 1 {
		line := bits.TrailingZeros64(m)
		at := int(s.snapAt[line]) * pmem.LineSize
		if !bytes.Equal(s.bitmapLine(line), pool[at:at+pmem.LineSize]) {
			c.FlushU64(pmem.CatMeta, s.Base+pmem.PAddr(s.bitmapBase)+pmem.PAddr(line*pmem.LineSize))
			flushed = true
		}
	}
	s.dirty = 0
	return flushed
}

// DirtyLines returns the write-back mask: bit i set means line i of the
// bitmap region may differ from the media. For tests of the invariant
// net-change write-back rests on: every other line is on media as it is
// in the cache image.
func (s *Slab) DirtyLines() uint64 { return s.dirty }

// BitmapRange returns the slab's bitmap region.
func (s *Slab) BitmapRange() pmem.Range {
	return pmem.Range{Start: s.Base + pmem.PAddr(s.bitmapBase), End: s.Base + pmem.PAddr(s.DataOff)}
}

// AllocBlock marks block idx allocated (volatile + persistent bit).
// persist controls whether the bitmap line is flushed now or left to the
// caller's write-back (LOG replay) or to post-crash GC.
func (s *Slab) AllocBlock(c *pmem.Ctx, idx int, persist bool) {
	if s.bitTest(idx) {
		panic(fmt.Sprintf("slab %#x: double allocation of block %d", s.Base, idx))
	}
	s.free.Set(idx)
	s.fresh = false // idx may sit above bump; the prefix invariant is gone
	s.Allocated++
	s.writePersistentBit(c, idx, true, persist)
}

// FreeBlock marks block idx free (volatile + persistent bit). A caller
// clearing a whole batch of bits fences once after the last: each bit's
// line is flushed individually, so a crash mid-batch persists a prefix.
func (s *Slab) FreeBlock(c *pmem.Ctx, idx int, persist bool) {
	if !s.bitTest(idx) {
		panic(fmt.Sprintf("slab %#x: double free of block %d", s.Base, idx))
	}
	s.free.Clear(idx)
	s.fresh = false
	s.Allocated--
	s.writePersistentBit(c, idx, false, persist)
}

// Reserve takes up to n free blocks out of the volatile bitmap without
// touching persistent state, appending their indices to out. Reserved
// blocks live in a tcache: unavailable to other threads, still free on
// media (a crash loses nothing — they were never handed to the user).
//
// Fresh slabs take the bump-pointer path: the next n indices are carved
// off the never-touched tail with one word-wise SetRange, no search.
// Otherwise each block is found with the two-level first-fit (two
// TrailingZeros64 ops per block). Both paths hand out the lowest free
// indices, so they are observationally identical to the old linear scan.
func (s *Slab) Reserve(n int, out []int) []int {
	s.checkBuilt()
	if s.fresh {
		k := s.Blocks - s.bump
		if k > n {
			k = n
		}
		if k > 0 {
			lo := s.bump
			s.free.SetRange(lo, lo+k)
			setBitRange(s.resBits, lo, lo+k)
			for i := 0; i < k; i++ {
				out = append(out, lo+i)
			}
			s.bump += k
			s.Reserved += k
			n -= k
		}
		return out
	}
	for ; n > 0; n-- {
		idx := s.free.FirstFree()
		if idx < 0 {
			break
		}
		s.free.Set(idx)
		s.resBits[idx/64] |= 1 << (idx % 64)
		s.Reserved++
		out = append(out, idx)
	}
	return out
}

// setBitRange sets bits [lo, hi) of a plain word slice word-at-a-time.
func setBitRange(words []uint64, lo, hi int) {
	for lo < hi {
		w := lo / 64
		m := ^uint64(0) << (lo % 64)
		if end := (w + 1) * 64; hi < end {
			m &= 1<<(hi%64) - 1
			lo = hi
		} else {
			lo = end
		}
		words[w] |= m
	}
}

// Unreserve returns a reserved block to the free state (tcache drain).
func (s *Slab) Unreserve(idx int) {
	s.checkBuilt()
	s.free.Clear(idx)
	s.fresh = false
	s.resBits[idx/64] &^= 1 << (idx % 64)
	s.Reserved--
}

// CommitAlloc turns a reserved block into an allocated one: the
// persistent bitmap bit is set and, when persist is true, flushed (IC;
// LOG passes false, having called MarkDirty). This is the per-malloc metadata
// write whose cache line the interleaved mapping varies.
func (s *Slab) CommitAlloc(c *pmem.Ctx, idx int, persist bool) {
	s.checkBuilt()
	s.resBits[idx/64] &^= 1 << (idx % 64)
	s.Reserved--
	s.Allocated++
	s.writePersistentBit(c, idx, true, persist)
}

// CommitFreeToCache clears the persistent bit of an allocated block that
// moves into a tcache (it stays volatile-reserved).
func (s *Slab) CommitFreeToCache(c *pmem.Ctx, idx int, persist bool) {
	s.checkBuilt()
	s.resBits[idx/64] |= 1 << (idx % 64)
	s.Allocated--
	s.Reserved++
	s.writePersistentBit(c, idx, false, persist)
}

// SyncBitmap rewrites the whole persistent bitmap from the volatile one
// and flushes it (used at clean shutdown by the GC variant, whose
// runtime path never flushes bitmap updates). Reserved blocks must have
// been drained first.
//
// The image is staged word-at-a-time through the device's bulk view —
// zero the region, then OR in one interleaved bit per occupied block —
// instead of one read-modify-write device call per block. Shutdown is
// single-threaded, so the bulk view cannot race a concurrent line flush.
func (s *Slab) SyncBitmap(c *pmem.Ctx) {
	s.checkBuilt()
	buf := s.dev.Bytes(s.Base+pmem.PAddr(s.bitmapBase), int(s.DataOff-s.bitmapBase))
	for i := range buf {
		buf[i] = 0
	}
	for w, word := range s.free.Words() {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << bit
			off := s.m.BitOffset(w*64 + bit)
			buf[off/8] |= 1 << (off % 8)
		}
	}
	c.Flush(pmem.CatMeta, s.Base+pmem.PAddr(s.bitmapBase), int(s.DataOff-s.bitmapBase))
	c.Fence()
	s.dirty = 0 // the whole bitmap is on media
}

// FreeCount returns the number of blocks neither allocated nor reserved.
func (s *Slab) FreeCount() int {
	s.checkBuilt()
	return s.Blocks - s.Allocated - s.Reserved
}

// Usage returns the occupancy ratio used by the morphing policy
// (reserved blocks count as occupied).
func (s *Slab) Usage() float64 {
	s.checkBuilt()
	if s.Blocks == 0 {
		return 1
	}
	return float64(s.Allocated+s.Reserved) / float64(s.Blocks)
}

// UsageBelowMille reports whether occupancy is strictly below
// mille/1000, in integer arithmetic — the hot-path form of
// Usage() < threshold, sparing the free paths a float division per op.
// An empty geometry (Blocks == 0) reads as fully occupied, like Usage.
func (s *Slab) UsageBelowMille(mille int) bool {
	s.checkBuilt()
	return (s.Allocated+s.Reserved)*1000 < mille*s.Blocks
}

// IsSlabIn reports whether the slab still holds old-class blocks.
func (s *Slab) IsSlabIn() bool { return s.OldClass >= 0 && s.CntSlab > 0 }
