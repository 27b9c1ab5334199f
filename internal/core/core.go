// Package core assembles NVAlloc from its substrates: per-core arenas
// with per-class slab freelists and an LRU list of morph candidates,
// per-thread tcaches, per-arena write-ahead logs, the global
// large allocator with log-structured bookkeeping, slab morphing, and
// three consistency variants: the paper's NVAlloc-LOG (WAL-based) and
// NVAlloc-GC (post-crash conservative garbage collection), and its
// future-work NVAlloc-IC (internal collection). They differ in where small
// metadata lives and when it is flushed, not in how a slab is locked.
package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"nvalloc/internal/alloc"
	"nvalloc/internal/blog"
	"nvalloc/internal/extent"
	"nvalloc/internal/pagemap"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// Variant selects the crash-consistency model.
type Variant int

// Consistency variants.
const (
	// LOG is NVAlloc-LOG: every metadata update goes through a WAL whose
	// entry is flushed and fenced before the operation returns (strongly
	// consistent); the bitmap line an entry covers is written back before
	// the ring's checkpoint passes the entry.
	LOG Variant = iota
	// GC is NVAlloc-GC: the small-allocation path persists nothing;
	// recovery runs a conservative GC from the root slots (weakly
	// consistent, fastest runtime).
	GC
	// IC is NVAlloc-IC, the paper's future-work variant using internal
	// collection: bitmap updates are persisted eagerly (no WAL), and the
	// application resolves crash-time leaks by iterating Heap.Objects —
	// the PMDK POBJ_FIRST/POBJ_NEXT model.
	IC
)

func (v Variant) String() string {
	switch v {
	case GC:
		return "NVAlloc-GC"
	case IC:
		return "NVAlloc-IC"
	default:
		return "NVAlloc-LOG"
	}
}

// Options configures a heap. The zero value is completed by
// (&Options{}).withDefaults().
type Options struct {
	Variant Variant
	// Arenas is the number of per-core arenas (the paper binds one arena
	// per CPU core on a 40-core machine). Default 16.
	Arenas int
	// Stripes is the interleaved-mapping stripe count (paper default 6);
	// 1 turns interleaving off everywhere. Which structures are spread
	// over it is the variant's business, not an option: see layout.
	Stripes int
	// LogBookkeeping uses the log-structured bookkeeping log for large
	// allocations; false falls back to classic in-place chunk headers.
	LogBookkeeping bool
	// Morphing enables slab morphing.
	Morphing bool
	// SU is the slab space-utilization threshold below which a slab may
	// morph (paper default 0.20).
	SU float64
	// WALEntries is the per-arena WAL ring capacity.
	WALEntries int
	// BlogGCThreshold overrides the active-chain byte size that triggers
	// the bookkeeping log's slow GC (0 = the log's default of 3/4 of its
	// region; the paper's Usage_pmem is a small fraction of the heap).
	// BlogGCNever turns the slow GC off.
	BlogGCThreshold uint64
	// NoExtentCache builds the large allocator without arena slab caches
	// and shard pools: one global critical section per extent operation,
	// and a slab one arena releases is at once another's to format
	// (contention reference, crashmc's write-back family).
	NoExtentCache bool
}

// DefaultOptions returns the paper's configuration for a variant.
func DefaultOptions(v Variant) Options {
	return Options{
		Variant:        v,
		Arenas:         16,
		Stripes:        6,
		LogBookkeeping: true,
		Morphing:       true,
		SU:             0.20,
		WALEntries:     1024,
	}
}

// Layout is over how many stripes a heap spreads each of its interleavable
// structures; 1 is the sequential layout. Bitmap is the count slabs are
// formatted (and morph targets laid out) with — a slab's header records
// its own, so slabs of different counts coexist in one heap — and Tcache
// the number of sub-tcaches per size class. WAL covers the WAL rings and
// the bookkeeping log's entries and is persisted in the superblock.
type Layout struct {
	Bitmap, Tcache, WAL int
}

// layout is the one place that decides what is interleaved: a structure is
// spread over Stripes lines exactly when the variant flushes one of its
// lines per operation, because interleaving exists so that back-to-back
// flushes never hit the same line (Section 5.1) and buys nothing for a
// line that is not flushed per op. NVAlloc-IC flushes a block's bitmap
// line on every small malloc and free, so its bitmaps are interleaved and
// its tcache hands blocks out stripe by stripe. NVAlloc-LOG flushes a WAL
// entry instead and writes bitmap lines back once per checkpoint, where
// what counts is how few lines a slab's changed bits sit in: the bitmap is
// sequential (one line per slab for every class of 128 bytes and up) and
// the tcache a plain LIFO. NVAlloc-GC flushes nothing on the small path
// and takes the same. Every variant flushes a bookkeeping-log entry per
// large operation, and that log shares the WAL's setting.
func (o Options) layout() Layout {
	l := Layout{Bitmap: 1, Tcache: 1, WAL: o.Stripes}
	if o.Variant == IC {
		l.Bitmap, l.Tcache = o.Stripes, o.Stripes
	}
	return l
}

// BlogGCNever is the BlogGCThreshold no bookkeeping log ever reaches.
const BlogGCNever = ^uint64(0) >> 1

const (
	// tcacheCap is the per-class tcache capacity in blocks.
	tcacheCap = 24
	// largeShards is the number of shard pools in front of the global
	// extent pool.
	largeShards = 8
)

func (o Options) withDefaults() Options {
	if o.Arenas <= 0 {
		o.Arenas = 16
	}
	if o.Stripes <= 0 {
		o.Stripes = 6
	}
	if o.SU <= 0 {
		o.SU = 0.20
	}
	if o.WALEntries <= 0 {
		o.WALEntries = 1024
	}
	if o.WALEntries < MinWALEntries {
		o.WALEntries = MinWALEntries
	}
	return o
}

// MinWALEntries is the smallest legal WAL ring: Create rounds a smaller
// Options.WALEntries up to it and Open refuses an image that claims less.
// A checkpoint move lands half a ring behind the append that triggers it
// and must never pass an entry of the commit group in flight (its bits are
// not written yet, see arena.commit); the largest group is a remote-free
// drain of remoteBatch entries, and four groups per ring leave that margin
// a group wide.
const MinWALEntries = 4 * remoteBatch

// Superblock layout (at device page 1; page 0 is the null guard).
const (
	superBase = pmem.PAddr(4096)

	sbMagic      = 0
	sbVersion    = 8
	sbState      = 16
	sbArenas     = 24
	sbStripes    = 32
	sbVariant    = 40
	sbHeapBase   = 48
	sbBreak      = 56 // the heap break cell itself
	sbBlogBase   = 64
	sbBlogSize   = 72
	sbWALBase    = 80
	sbWALEnts    = 88
	sbBookMode   = 96
	sbWALStripes = 104 // stripe count used by WAL + blog entry layout; [112,120) reserved
	sbChecksum   = 120 // CRC-32C over [0,120) with state and break zeroed
	sbRoots      = 128 // alloc.NumRootSlots * 8 bytes

	superMagic = 0x4E56414C4C4F4321 // "NVALLOC!"
	// superVersion 4: WAL entries carry three 48-bit addresses and the
	// publish op replaces the malloc_to/free_from pair (walog.OpPublish).
	// A version 3 ring holds op codes and a field layout this build would
	// misread, so Open refuses it (pmem.FormatError).
	// superVersion 5: the bookkeeping log is one chunk chain over its
	// region (blog.RegionSize). A version 4 region is split into
	// address-routed shards, each with a header of its own, which this
	// build would read as one corrupt log.
	// superVersion 6: the heap starts where its metadata ends, rounded up
	// to extent.LeaseAlign rather than to a whole chunk (extent.HeapBase),
	// and its chunks are counted from there. A version 5 build would read
	// such a heap base as corrupt and might repair it; the bump makes each
	// build refuse the other's heaps by name instead.
	superVersion = 6
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// superCRC computes the superblock checksum: CRC-32C over the first 120
// bytes of the superblock with the run-state word [16,24) and the heap
// break [56,64) zeroed. Both change at runtime without a checksum
// update — the state word carries its own seal (pmem.SealU64) and the
// break self-heals in extent.Rebuild.
func superCRC(dev pmem.Dev) uint32 {
	var buf [sbChecksum]byte
	copy(buf[:], dev.Bytes(superBase, sbChecksum))
	for i := sbState; i < sbState+8; i++ {
		buf[i] = 0
	}
	for i := sbBreak; i < sbBreak+8; i++ {
		buf[i] = 0
	}
	return crc32.Checksum(buf[:], crcTable)
}

// Heap run-state values. The paper keeps the flag per arena; here the one
// sealed superblock word covers them all. Superblock bytes [1024,1024+8*
// arenas) once held a per-arena copy that nothing ever read; they stay
// reserved.
const (
	stateFresh    = 0
	stateRunning  = 1
	stateShutdown = 2
	stateRecovery = 3
	// stateClosing: Close has begun checkpointing WALs. Every operation
	// acknowledged before Close is already durably applied (Close writes
	// the dirty bitmap lines back before sealing this state), so a crash
	// in this window recovers without replaying WALs: there is nothing to
	// redo, and no ring is left half-truncated for replay to reason about.
	stateClosing = 4
)

// Heap is an NVAlloc heap instance.
type Heap struct {
	dev  pmem.Dev
	mem  pmem.Mem // dev's concrete image view, for dispatch-free hot paths
	opts Options

	lay          Layout
	persistSmall bool // LOG and IC persist small metadata (IC per op, LOG per WAL checkpoint)
	useWAL       bool // LOG variant only
	suMille      int  // opts.SU quantized to per-mille for the hot paths

	arenas []*arena
	large  *extent.Allocator
	book   extent.Bookkeeper
	blog   *blog.Log // non-nil iff LogBookkeeping

	// slabs maps slab base addresses to vslabs through a lock-free
	// two-level page map: Free resolves an address to its slab with two
	// atomic loads and no global lock. Writers (newSlab/releaseSlab)
	// publish fully-constructed slabs with an atomic store.
	slabs *pagemap.Map[slab.Slab]

	threadsMu sync.Mutex
	nextOwner int
	closed    bool
	// strays are the slabs with a free block that the GC variant's
	// recovery swept. The arena the first thread attaches to adopts them
	// (NewThread): until then no thread exists, so no block of theirs is
	// cached or buffered anywhere. Guarded by threadsMu.
	strays []*slab.Slab

	heapBase pmem.PAddr

	// ringsInService counts the WAL rings that have been appended to
	// (walog.Log.InService): their bytes are in Used.
	ringsInService atomic.Int32

	recovery Recovery // what Open did; zero on a heap Create formatted
}

var _ alloc.Heap = (*Heap)(nil)

// Create formats the device as a fresh NVAlloc heap.
func Create(dev pmem.Dev, opts Options) (*Heap, error) {
	opts = opts.withDefaults()
	return CreateLayout(dev, opts, opts.layout())
}

// CreateLayout is Create with the layout given instead of derived from the
// variant. It exists for the experiments that reproduce the paper's
// ablations (Figure 11's Base and +Interleaved steps, Figure 16(a)'s sweep
// with every structure striped) and for tests that need a heap of slabs
// formatted under another layout. Only WAL is persistent: a reopened heap
// formats new slabs and builds tcaches by its variant's rule.
func CreateLayout(dev pmem.Dev, opts Options, lay Layout) (*Heap, error) {
	opts = opts.withDefaults()
	fresh := freshDevice(dev)
	h, err := regions(dev, opts)
	if err != nil {
		return nil, err
	}
	c := dev.NewCtx()
	defer c.Merge()
	var inPlace *extent.InPlace
	if !opts.LogBookkeeping {
		inPlace = extent.NewInPlace(dev, h.heapBase, superBase+sbBreak)
	}
	if !fresh {
		// The metadata regions may hold the rings and the log of the heap
		// this device held, and in-place bookkeeping the record tables of
		// its chunks. A crash must not bring their entries back into the
		// new heap's: they are zeroed on media before the new superblock
		// is written.
		meta := int(h.heapBase - firstRing)
		dev.Zero(firstRing, meta)
		c.Flush(pmem.CatMeta, firstRing, meta)
		c.Fence()
		if inPlace != nil {
			inPlace.Clear(c)
		}
	}

	// Persist the superblock.
	w := func(off pmem.PAddr, v uint64) { dev.WriteU64(superBase+off, v) }
	w(sbMagic, superMagic)
	w(sbVersion, superVersion)
	w(sbState, pmem.SealU64(stateRunning))
	w(sbArenas, uint64(opts.Arenas))
	w(sbStripes, uint64(opts.Stripes))
	w(sbVariant, uint64(opts.Variant))
	w(sbHeapBase, uint64(h.heapBase))
	w(sbBreak, uint64(h.heapBase))
	bookMode := uint64(0)
	if opts.LogBookkeeping {
		bookMode = 1
	}
	w(sbBookMode, bookMode)
	dev.Zero(superBase+sbRoots, alloc.NumRootSlots*8)

	h.initVolatile(dev, opts, lay)
	w(sbWALStripes, uint64(h.lay.WAL))
	w(sbChecksum, uint64(superCRC(dev)))
	c.Flush(pmem.CatMeta, superBase, 4096)
	c.Fence()
	// Fresh persistent structures.
	if opts.LogBookkeeping {
		h.blog = blog.New(dev.Mem(), h.blogBase(), h.blogSize(), h.lay.WAL)
		if opts.BlogGCThreshold > 0 {
			h.blog.SlowGCThreshold = opts.BlogGCThreshold
		}
		h.book = h.blog
	} else {
		h.book = inPlace
	}
	h.large = extent.New(dev, h.book, h.extentConfig(), opts.extentTiers())
	h.serveLog()
	for i := range h.arenas {
		wal, err := h.newWAL(i)
		if err != nil {
			return nil, err
		}
		h.arenas[i].wal = wal
	}
	return h, nil
}

// firstRing is where the first WAL ring starts: below it lie the null
// guard page and the superblock.
const firstRing = pmem.PAddr(8192)

// freshDevice reports whether dev is fresh: the bytes below the first WAL
// ring read zero. Every format — NVAlloc's and the baselines' — writes and
// flushes its superblock there before it writes any ring or log, so a
// device that ever held a heap is not fresh, and a fresh one holds zeros
// in every metadata region too. Create relies on this rule: it formats
// the WAL rings and the bookkeeping log in place, as the zeros that
// already read as empty rings and an empty log, and writes them only on a
// device that is not fresh.
func freshDevice(dev pmem.Dev) bool {
	for _, b := range dev.Bytes(0, int(firstRing)) {
		if b != 0 {
			return false
		}
	}
	return true
}

// regions computes region addresses for a fresh heap and records them in
// the (not yet flushed) superblock.
func regions(dev pmem.Dev, opts Options) (*Heap, error) {
	h := &Heap{dev: dev, mem: dev.Mem(), opts: opts}
	walBytes := uint64(opts.Arenas) * uint64(walog.RegionSize(opts.WALEntries, opts.Stripes))
	walBase := uint64(firstRing)
	blogBase := (walBase + walBytes + 4095) &^ 4095
	blogSize := blog.RegionSize(dev.Size())
	heapBase := extent.HeapBase(blogBase + blogSize)
	if heapBase+extent.ChunkSize > dev.Size() {
		return nil, fmt.Errorf("core: device too small (%d bytes) for metadata regions", dev.Size())
	}
	if dev.Size() > 1<<walog.AddrBits {
		return nil, fmt.Errorf("core: device of %d bytes exceeds the %d-bit addresses a WAL entry holds", dev.Size(), walog.AddrBits)
	}
	dev.WriteU64(superBase+sbWALBase, walBase)
	dev.WriteU64(superBase+sbWALEnts, uint64(opts.WALEntries))
	dev.WriteU64(superBase+sbBlogBase, blogBase)
	dev.WriteU64(superBase+sbBlogSize, blogSize)
	h.heapBase = pmem.PAddr(heapBase)
	return h, nil
}

func (h *Heap) blogBase() pmem.PAddr { return pmem.PAddr(h.dev.ReadU64(superBase + sbBlogBase)) }
func (h *Heap) blogSize() uint64     { return h.dev.ReadU64(superBase + sbBlogSize) }
func (h *Heap) walBase() pmem.PAddr  { return pmem.PAddr(h.dev.ReadU64(superBase + sbWALBase)) }

func (h *Heap) initVolatile(dev pmem.Dev, opts Options, lay Layout) {
	h.lay = lay
	h.persistSmall = opts.Variant == LOG || opts.Variant == IC
	h.useWAL = opts.Variant == LOG
	// The morph-candidate threshold compares integers on the hot free
	// paths; SU is quantized to per-mille (0.1% steps) once here.
	h.suMille = int(math.Round(opts.SU * 1000))
	h.slabs = pagemap.New[slab.Slab](dev.Size(), slab.Size)
	h.arenas = make([]*arena, opts.Arenas)
	for i := range h.arenas {
		h.arenas[i] = newArena(h, i)
	}
}

// newWAL opens arena i's WAL ring. The ring counts into Used from its
// first append (ringInService).
func (h *Heap) newWAL(i int) (*walog.Log, error) {
	base := h.walBase() + pmem.PAddr(uint64(i)*h.ringBytes())
	wal, err := walog.New(h.mem, base, h.opts.WALEntries, h.lay.WAL)
	if err == nil {
		wal.OnInService = h.ringInService
		if h.useWAL {
			wal.WriteBack = h.arenas[i].writeBack
		}
	}
	return wal, err
}

// ringBytes is the size of one WAL ring's region.
func (h *Heap) ringBytes() uint64 {
	return uint64(walog.RegionSize(h.opts.WALEntries, h.opts.Stripes))
}

// ringInService counts a WAL ring that its first append has just put in
// service.
func (h *Heap) ringInService() {
	h.ringsInService.Add(1)
	h.large.CommitMeta(h.ringBytes())
}

// Metadata is what a heap's metadata regions hold in service against what
// they reserve below the heap base. The bytes in service are the metadata
// Used counts.
type Metadata struct {
	// Superblock is the bytes below the first WAL ring: the null guard
	// page and the superblock, in service from format.
	Superblock uint64
	// RingsInService of the Rings WAL rings, RingBytes each, have been
	// appended to.
	Rings, RingsInService int
	RingBytes             uint64
	// LogBytes of the bookkeeping log's LogRegion bytes lie below its
	// break (none with in-place bookkeeping, whose region stays unused).
	LogBytes, LogRegion uint64
}

// InService returns the metadata bytes Used counts.
func (m Metadata) InService() uint64 {
	return m.Superblock + uint64(m.RingsInService)*m.RingBytes + m.LogBytes
}

// Reserved returns the bytes the metadata regions reserve.
func (m Metadata) Reserved() uint64 {
	return m.Superblock + uint64(m.Rings)*m.RingBytes + m.LogRegion
}

// Metadata reports the heap's metadata in service against what its
// regions reserve.
func (h *Heap) Metadata() Metadata {
	m := Metadata{
		Superblock:     uint64(h.walBase()),
		Rings:          len(h.arenas),
		RingsInService: int(h.ringsInService.Load()),
		RingBytes:      h.ringBytes(),
		LogRegion:      h.blogSize(),
	}
	if h.blog != nil {
		m.LogBytes = h.blog.InService()
	}
	return m
}

// serveLog counts the bookkeeping log into Used up to its break, and
// whatever it puts in service later as it carves.
func (h *Heap) serveLog() {
	if h.blog != nil {
		h.large.CommitMeta(h.blog.InService())
		h.blog.OnGrow = h.large.CommitMeta
	}
}

// Device returns the underlying device.
func (h *Heap) Device() pmem.Dev { return h.dev }

// Options returns the heap's effective options.
func (h *Heap) Options() Options { return h.opts }

// Layout returns the layout the heap runs with: what it formats new slabs
// and builds tcaches with, and the persisted WAL stripe count. Slabs
// formatted earlier keep their own (LayoutCensus).
func (h *Heap) Layout() Layout { return h.lay }

// LayoutCensus counts the heap's slabs by the bitmap stripe count in their
// headers.
func (h *Heap) LayoutCensus() map[int]int {
	census := map[int]int{}
	h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
		h.lockSlabState(s)
		census[s.Stripes()]++
		h.unlockSlabState(s)
		return true
	})
	return census
}

// RootSlot returns the persistent address of root pointer slot i.
func (h *Heap) RootSlot(i int) pmem.PAddr {
	if i < 0 || i >= alloc.NumRootSlots {
		panic("core: root slot out of range")
	}
	return superBase + sbRoots + pmem.PAddr(i*8)
}

// extentConfig places the large allocator on the device. Its Used starts
// with the superblock bytes, which are in service from format; the WAL
// rings and the bookkeeping log are added as they go into service
// (serveLog, ringInService).
func (h *Heap) extentConfig() extent.Config {
	return extent.Config{
		HeapBase:  h.heapBase,
		HeapEnd:   pmem.PAddr(h.dev.Size()),
		BreakPtr:  superBase + sbBreak,
		MetaBytes: uint64(h.walBase()),
	}
}

// extentTiers says what the large allocator is built with in front of its
// global pool: a slab cache per arena and the shard pools, or nothing.
func (o Options) extentTiers() extent.Tiers {
	if o.NoExtentCache {
		return extent.Tiers{}
	}
	return extent.Tiers{Caches: o.Arenas, SlabSize: slab.Size, Pools: largeShards}
}

// Used returns committed persistent memory (see extent.Allocator.Used).
func (h *Heap) Used() uint64 { return h.large.Used() }

// Peak returns the high-water mark of Used.
func (h *Heap) Peak() uint64 { return h.large.Peak() }

// ResetPeak restarts peak tracking.
func (h *Heap) ResetPeak() { h.large.ResetPeak() }

// Blog exposes the bookkeeping log (nil when in-place bookkeeping is
// configured); used by GC-overhead experiments.
func (h *Heap) Blog() *blog.Log { return h.blog }

// BlockAllocated reports whether addr holds a live small block: its slab
// still exists and the block's bit (or, on a morphed slab, its old-class
// index entry) is set. It is the read-only probe crash tests use to ask
// whether a free survived recovery — unlike Free, it never mutates and
// is safe on already-freed addresses. Like Objects, it builds an unbuilt
// slab's bitmap uncharged.
func (h *Heap) BlockAllocated(addr pmem.PAddr) bool {
	s := h.slabs.Lookup(addr &^ (slab.Size - 1))
	if s == nil {
		return false
	}
	h.lockSlabState(s)
	defer h.unlockSlabState(s)
	s.Build(nil)
	if s.OldBlockIndex(addr) >= 0 {
		return true
	}
	idx := s.BlockIndex(addr)
	return idx >= 0 && s.BlockAllocated(idx)
}

// LeaseOverhead returns the bytes of activated-but-idle space parked in
// arena slab caches and shard-pool leases (see extent.LeaseOverhead).
func (h *Heap) LeaseOverhead() uint64 { return h.large.LeaseOverhead() }

// FreeBytes returns the large allocator's free space by what backs it:
// dirty pages (in Used) and retained space that holds none (see
// extent.Allocator.FreeBytes).
func (h *Heap) FreeBytes() (dirty, retained uint64) { return h.large.FreeBytes() }

// LargeStats returns split/coalesce/grow counters.
func (h *Heap) LargeStats() (splits, coalesces, grows uint64) { return h.large.Stats() }

// MorphStats returns total morphs and refused candidates across arenas.
func (h *Heap) MorphStats() (morphs, refusals uint64) {
	for _, a := range h.arenas {
		morphs += a.morphs
		refusals += a.morphRefusals
	}
	return
}

// SlabUtilization buckets live slabs by occupancy — <30%, 30-70%, >70% —
// and returns the slab counts per bucket (Figure 15(b)'s breakdown). Like
// Objects, it builds every unbuilt slab's bitmap uncharged.
func (h *Heap) SlabUtilization() (buckets [3]int) {
	h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
		h.lockSlabState(s)
		s.Build(nil)
		u := s.Usage()
		h.unlockSlabState(s)
		switch {
		case u < 0.30:
			buckets[0]++
		case u < 0.70:
			buckets[1]++
		default:
			buckets[2]++
		}
		return true
	})
	return
}

// Close performs a normal shutdown: drains nothing (threads must be
// closed by their owners first), checkpoints WALs, syncs GC-variant
// bitmaps, and persists the shutdown flag.
func (h *Heap) Close() error {
	h.threadsMu.Lock()
	defer h.threadsMu.Unlock()
	if h.closed {
		return alloc.ErrClosed
	}
	h.closed = true
	c := h.dev.NewCtx()
	defer c.Merge()

	// Depot magazines hold volatile-reserved blocks; return the
	// reservations to their slabs before any bitmap sync.
	for _, a := range h.arenas {
		a.drainDepots(c)
	}
	if !h.persistSmall {
		// GC variant: bitmaps were never flushed at runtime; persist the
		// volatile truth now so normal-shutdown recovery is cheap.
		h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
			h.lockSlabState(s)
			s.Build(c)
			s.SyncBitmap(c)
			h.unlockSlabState(s)
			return true
		})
	}
	// A crash once "closing" is sealed recovers without replaying WALs,
	// so every bit a ring still covers goes to media first.
	if h.useWAL {
		flushed := false
		for _, a := range h.arenas {
			a.res.Acquire(c)
			flushed = a.writeBack(c) || flushed
			a.res.Release(c)
		}
		if flushed {
			c.Fence()
		}
	}
	// Seal "no operation is in flight" before the first checkpoint: WAL
	// rings are truncated one arena at a time, and recovery must not have
	// to replay the survivors of a partial truncation (see stateClosing).
	c.PersistU64(pmem.CatMeta, superBase+sbState, pmem.SealU64(stateClosing))
	c.Fence()
	for _, a := range h.arenas {
		if a.wal != nil {
			a.res.Acquire(c)
			a.wal.Checkpoint(c)
			a.res.Release(c)
		}
	}
	c.PersistU64(pmem.CatMeta, superBase+sbState, pmem.SealU64(stateShutdown))
	c.Fence()
	return nil
}

// ResourceLoad is one lock's contention record: total virtual time spent
// inside its critical sections (LoadNS), total virtual time threads spent
// waiting for it (WaitNS), and how many times it was acquired.
type ResourceLoad struct {
	Name     string
	LoadNS   int64
	WaitNS   int64
	Acquires uint64
}

// Contention returns the per-resource load table for the heap: the
// global large-allocator lock, the bookkeeper lock, each shard pool, and
// each arena.
func (h *Heap) Contention() []ResourceLoad {
	row := func(name string, r *pmem.Resource) ResourceLoad {
		return ResourceLoad{Name: name, LoadNS: r.Load(), WaitNS: r.WaitNS(), Acquires: r.Acquires()}
	}
	global, book, shards := h.large.Locks()
	if h.blog != nil {
		book = h.blog.Res() // the log serializes itself
	}
	out := []ResourceLoad{row("large", global), row("book", book)}
	for i, r := range shards {
		out = append(out, row(fmt.Sprintf("shard%d", i), r))
	}
	for i, a := range h.arenas {
		out = append(out, row(fmt.Sprintf("arena%d", i), &a.res))
	}
	return out
}

// SlabCreates returns the number of slabs formatted since startup,
// summed over arenas — the denominator of the "global-lock acquisitions
// per slab refill" amortization check.
func (h *Heap) SlabCreates() uint64 {
	var n uint64
	for _, a := range h.arenas {
		n += a.slabsCreated
	}
	return n
}

// CacheStats aggregates the arena slab-cache counters: cache hits,
// batched refills, overflow/back-pressure flushes, and total extents
// carved through the batched path.
func (h *Heap) CacheStats() (hits, refills, flushes, carved uint64) { return h.large.CacheStats() }
