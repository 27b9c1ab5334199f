package baseline

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"nvalloc/internal/alloc"
	"nvalloc/internal/bitfit"
	"nvalloc/internal/extent"
	"nvalloc/internal/pagemap"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// SlabSize is NVAlloc's slab size, the paper's 64 KiB, so space numbers
// compare.
const SlabSize = slab.Size

// maxArenas bounds the WAL region reservation (per-thread allocators
// register arenas dynamically).
const maxArenas = 64

const walEntriesPerArena = 1024

// bslab is a baseline slab: sequential metadata in the header pages.
//
//	[0,64)        header: magic u32, class u32, freeHead u32 (persistent
//	              list head: block index+1, 0 = empty)
//	[64, dataOff) block metadata: 1 bit or, with Config.Slots, a 2-byte
//	              slot per block; for freelist allocators this region is
//	              only synced at clean shutdown
//	[dataOff, SlabSize) blocks; a free block's first 8 bytes hold the
//	              embedded next link in freelist mode
type bslab struct {
	base      pmem.PAddr
	class     int
	blockSize uint32
	blocks    int
	dataOff   uint32

	mu        sync.Mutex
	vbits     *bitfit.Bitmap // volatile: 1 = allocated or reserved (leaf + summary)
	allocated int
	reserved  int
	freeHeadV int   // volatile freelist head (-1 none)
	vnext     []int // volatile freelist links

	owner              *barena
	freePrev, freeNext *bslab
}

const (
	bsMagic    = 0
	bsClass    = 4
	bsFreeHead = 8
	bsMetaOff  = 64

	bslabMagic = 0x42534C41 // "BSLA"
)

func metaBytesPer(cfg *Config, blocks int) int {
	if cfg.Slots {
		return blocks * 2
	}
	return (blocks + 7) / 8
}

// bslabGeometry fits the most blocks of class behind the header and their
// metadata units, rounded up to a cache line. Without the round-up each
// block costs its size and its unit (an eighth of a byte or two bytes),
// which bounds the count from above; the round-up trims a few blocks.
func bslabGeometry(cfg *Config, class int) (blocks int, dataOff uint32) {
	bsize := int(sizeclass.Size(class))
	metaEnd := func(n int) int {
		return (bsMetaOff + metaBytesPer(cfg, n) + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
	}
	blocks = (SlabSize - bsMetaOff) * 8 / (bsize*8 + metaBytesPer(cfg, 8))
	for metaEnd(blocks)+blocks*bsize > SlabSize {
		blocks--
	}
	return blocks, uint32(metaEnd(blocks))
}

func (s *bslab) blockAddr(idx int) pmem.PAddr {
	return s.base + pmem.PAddr(s.dataOff) + pmem.PAddr(idx)*pmem.PAddr(s.blockSize)
}

func (s *bslab) blockIndex(addr pmem.PAddr) int {
	off := int64(addr) - int64(s.base) - int64(s.dataOff)
	if off < 0 || off%int64(s.blockSize) != 0 {
		return -1
	}
	idx := int(off / int64(s.blockSize))
	if idx >= s.blocks {
		return -1
	}
	return idx
}

// persistMeta flushes block idx's sequential metadata unit: the bit (or
// 2-byte slot) of consecutive blocks shares a cache line, which is
// exactly the reflush behaviour Section 3.1 measures.
func (s *bslab) persistMeta(h *Heap, c *pmem.Ctx, idx int, allocated bool) {
	dev := h.dev
	if !h.cfg.Slots {
		a := s.base + bsMetaOff + pmem.PAddr(idx/8)
		b := dev.ReadU8(a)
		if allocated {
			b |= 1 << (idx % 8)
		} else {
			b &^= 1 << (idx % 8)
		}
		dev.WriteU8(a, b)
		c.Flush(pmem.CatMeta, a, 1)
	} else {
		a := s.base + bsMetaOff + pmem.PAddr(idx*2)
		v := uint16(0)
		if allocated {
			v = uint16(s.blockSize/8) | 1<<15
		}
		dev.WriteU16(a, v)
		c.Flush(pmem.CatMeta, a, 2)
	}
	c.Fence()
}

// barena is a baseline arena.
type barena struct {
	res     pmem.Resource
	wal     *walog.Log
	free    []*bslab // per-class freelist heads
	threads int
}

// Heap is a baseline allocator instance.
type Heap struct {
	cfg  Config
	dev  pmem.Dev
	book *extent.InPlace
	// large is built without slab caches and shard pools: every verb is
	// one critical section of the global pool. Large objects go to that
	// pool directly (large.Global), so its Res can be held across the
	// charges that model each baseline's large path.
	large *extent.Allocator
	// largeWAL records transactional large-path metadata (PMDK-style);
	// guarded by the global pool's Res.
	largeWAL *walog.Log

	arenasMu sync.Mutex
	arenas   []*barena
	nextWAL  int
	rr       int

	// ringInService marks the WAL ring slots counted into Used (serveRing).
	ringInService [maxArenas + 1]atomic.Bool

	// slabs is the lock-free base-address index shared with the NVAlloc
	// engines: Free resolves slabs with atomic loads, no global lock.
	slabs *pagemap.Map[bslab]

	closed bool
}

var _ alloc.Heap = (*Heap)(nil)

// New formats dev as a fresh heap for the given baseline configuration.
func New(dev pmem.Dev, cfg Config) (*Heap, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	h := &Heap{cfg: cfg, dev: dev, slabs: pagemap.New[bslab](dev.Size(), SlabSize)}
	walRegion := walog.RegionSize(walEntriesPerArena, 1)
	walBase := uint64(8192)
	heapBase := extent.HeapBase(walBase + uint64((maxArenas+1)*walRegion))
	if heapBase+extent.ChunkSize > dev.Size() {
		return nil, fmt.Errorf("baseline: device too small")
	}
	c := dev.NewCtx()
	defer c.Merge()
	book := extent.NewInPlace(dev, pmem.PAddr(heapBase), superBase+sbBreak)
	if !freshDevice(dev, walBase) {
		// The chunks may hold the record tables of the heap this device
		// held, which Open would read back after a crash of this one.
		book.Clear(c)
	}
	dev.WriteU64(superBase+sbMagic, baseMagic)
	dev.WriteU64(superBase+sbState, pmem.SealU64(stateRunning))
	dev.WriteU64(superBase+sbVersion, superVersion)
	dev.WriteU64(superBase+sbWALBase, walBase)
	dev.WriteU64(superBase+sbWALSize, uint64(walRegion))
	dev.WriteU64(superBase+sbHeapBase, heapBase)
	dev.WriteU64(superBase+sbChecksum, uint64(superCRC(dev)))
	dev.Zero(superBase+sbRoots, alloc.NumRootSlots*8)
	c.Flush(pmem.CatMeta, superBase, 4096)
	c.Fence()
	// A reformatted device may carry WAL rings from a previous heap.
	dev.Zero(pmem.PAddr(walBase), (maxArenas+1)*walRegion)

	h.book = book
	h.large = extent.New(dev, h.book, extent.Config{
		HeapBase:  pmem.PAddr(heapBase),
		HeapEnd:   pmem.PAddr(dev.Size()),
		BreakPtr:  superBase + sbBreak,
		MetaBytes: walBase,
	}, extent.Tiers{})
	if err := h.startArenas(); err != nil {
		return nil, err
	}
	return h, nil
}

// startArenas opens ring 0, the large path's log, and the Config.Arenas
// shared arenas over the rings after it. A private arena starts with the
// thread that owns it (NewThread).
func (h *Heap) startArenas() error {
	walBase := pmem.PAddr(h.dev.ReadU64(superBase + sbWALBase))
	largeWAL, err := walog.New(h.dev.Mem(), walBase, walEntriesPerArena, 1)
	if err != nil {
		return err
	}
	h.serveRing(0, largeWAL)
	h.largeWAL = largeWAL
	h.nextWAL = 1
	for i := 0; i < h.cfg.Arenas; i++ {
		h.arenas = append(h.arenas, h.newArena())
	}
	return nil
}

// freshDevice reports whether dev never held a heap: the bytes below
// ringBase, where every format writes its superblock first, read zero
// (the rule core.Create formats by).
func freshDevice(dev pmem.Dev, ringBase uint64) bool {
	for _, b := range dev.Bytes(0, int(ringBase)) {
		if b != 0 {
			return false
		}
	}
	return true
}

func (h *Heap) newArena() *barena {
	walBase := pmem.PAddr(h.dev.ReadU64(superBase + sbWALBase))
	walRegion := pmem.PAddr(h.dev.ReadU64(superBase + sbWALSize))
	slot := h.nextWAL
	if slot > maxArenas {
		slot = 1 + (slot-1)%maxArenas // wrap: share WAL regions beyond the cap
	}
	h.nextWAL++
	base := walBase + pmem.PAddr(slot)*walRegion
	wal, err := walog.New(h.dev.Mem(), base, walEntriesPerArena, 1)
	if err != nil {
		// The slot's checkpoint word is damaged. Open has already
		// replayed (or rejected) every WAL region by the time runtime
		// arena creation reaches here, so nothing unconsumed is lost by
		// resetting the ring.
		h.dev.Zero(base, walog.RegionSize(walEntriesPerArena, 1))
		wal, _ = walog.New(h.dev.Mem(), base, walEntriesPerArena, 1)
	}
	h.serveRing(slot, wal)
	return &barena{wal: wal, free: make([]*bslab, sizeclass.NumClasses())}
}

// serveRing counts WAL ring slot into Used once, by NVAlloc's rule for its
// metadata: from the first append of a log over it (w's or another arena's
// that shares the slot), or at once if it already holds entries. Used
// starts with the superblock bytes; the rings the heap formatted but never
// appended to stay out of it.
func (h *Heap) serveRing(slot int, w *walog.Log) {
	serve := func() {
		if h.ringInService[slot].CompareAndSwap(false, true) {
			h.large.CommitMeta(uint64(walog.RegionSize(walEntriesPerArena, 1)))
		}
	}
	if w.InService() {
		serve()
	} else {
		w.OnInService = serve
	}
}

// Device returns the underlying device.
func (h *Heap) Device() pmem.Dev { return h.dev }

// Name returns the baseline's name.
func (h *Heap) Name() string { return h.cfg.Name }

// RootSlot returns the persistent root pointer slot i.
func (h *Heap) RootSlot(i int) pmem.PAddr {
	if i < 0 || i >= alloc.NumRootSlots {
		panic("baseline: root slot out of range")
	}
	return superBase + sbRoots + pmem.PAddr(i*8)
}

// Used returns committed persistent memory.
func (h *Heap) Used() uint64 { return h.large.Used() }

// Peak returns the usage high-water mark.
func (h *Heap) Peak() uint64 { return h.large.Peak() }

// ResetPeak restarts peak tracking.
func (h *Heap) ResetPeak() { h.large.ResetPeak() }

// Close performs a clean shutdown: freelist allocators sync their
// shutdown images, WALs checkpoint, and the state flag persists.
func (h *Heap) Close() error {
	h.arenasMu.Lock()
	defer h.arenasMu.Unlock()
	if h.closed {
		return alloc.ErrClosed
	}
	h.closed = true
	c := h.dev.NewCtx()
	defer c.Merge()
	if h.cfg.freelist() {
		h.slabs.Range(func(_ pmem.PAddr, s *bslab) bool {
			s.mu.Lock()
			s.syncShutdownMeta(h)
			c.Flush(pmem.CatMeta, s.base+bsMetaOff, int(s.dataOff)-bsMetaOff)
			s.mu.Unlock()
			return true
		})
		c.Fence()
	}
	for _, a := range h.arenas {
		a.res.Acquire(c)
		a.wal.Checkpoint(c)
		a.res.Release(c)
	}
	c.PersistU64(pmem.CatMeta, superBase+sbState, pmem.SealU64(stateShutdown))
	c.Fence()
	return nil
}

// syncShutdownMeta stages a freelist slab's shutdown image, one 2-byte
// slot per occupied block, through the device's bulk view instead of one
// device read-modify-write per block; Close flushes the region afterwards.
// Shutdown holds the arenas lock, so the bulk view cannot race a
// concurrent line flush.
func (s *bslab) syncShutdownMeta(h *Heap) {
	buf := h.dev.Bytes(s.base+bsMetaOff, int(s.dataOff)-bsMetaOff)
	for i := range buf {
		buf[i] = 0
	}
	for w, word := range s.vbits.Words() {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << bit
			binary.LittleEndian.PutUint16(buf[(w*64+bit)*2:], 1<<15)
		}
	}
}
