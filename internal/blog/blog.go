// Package blog implements NVAlloc's persistent bookkeeping log
// (Section 5.3): a log-structured record of every live extent, written
// sequentially so that large-allocation metadata never causes small
// random writes to persistent memory.
//
// The log region holds a header plus 1 KiB chunks. Each chunk stores a
// 64 B chunk header and up to 120 eight-byte entries (96 with the default
// six stripes — see PerChunk) placed with the same interleaved mapping as
// slab bitmaps so consecutive appends hit different cache lines. (The
// paper packs 128 entries per chunk with an out-of-band header; we keep
// the header inside the chunk for a self-contained layout.)
//
// Entry format (8 B, little endian):
//
//	bits  0..25  size in bytes (<= 64 MiB)
//	bits 26..61  address >> 12 (extents are 4 KiB aligned)
//	bits 62..63  type: 1 extent, 2 slab, 3 tombstone (0 = empty slot)
//
// Volatile state mirrors the paper: one vchunk (validity bitmap) per
// active chunk, kept in a red-black tree; a free-chunk list; and an
// address index so freeing an extent can clear the vbit of its normal
// entry. Fast GC retires chunks whose vbitmap is empty by clearing one
// activeness bit; slow GC rewrites live entries into a fresh chain and
// flips the header's alt bit atomically.
package blog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"

	"nvalloc/internal/interleave"
	"nvalloc/internal/pmem"
	"nvalloc/internal/rbtree"
	"nvalloc/internal/sizeclass"
)

// ChunkSize is the persistent footprint of one log chunk.
const ChunkSize = 1024

// minPerChunk is the smallest PerChunk over every stripe count (eight
// stripes of one line each).
const minPerChunk = 64

// PerChunk returns the entry capacity of a chunk for a given stripe
// count. A chunk has 15 usable lines after its header; interleaving pads
// each stripe to whole cache lines, so the capacity is the largest
// stripe-balanced layout that fits (120 entries sequentially, 96 with the
// default 6 stripes; the paper's 128 assumes an out-of-band header and no
// stripe padding).
func PerChunk(stripes int) int {
	usable := (ChunkSize - chunkHdrSize) / pmem.LineSize
	if stripes < 1 {
		stripes = 1
	}
	if stripes > usable {
		stripes = usable
	}
	return (usable / stripes) * stripes * (pmem.LineSize / 8)
}

const (
	headerSize   = pmem.LineSize // log header: two chain pointers + alt bit + break
	chunkHdrSize = pmem.LineSize

	// Log header field offsets.
	offPtrA  = 0
	offPtrB  = 8
	offAlt   = 16
	offBreak = 24

	// Chunk header field offsets.
	coMagic  = 0  // u32
	coActive = 4  // u32 (1 = active)
	coNext   = 8  // u64 next chunk in chain
	coSeq    = 16 // u64 activation sequence; orders entries globally
	coCRC    = 24 // u32 CRC32C over (magic, seq)

	chunkMagic = 0x4B4E4843 // "CHNK"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// chunkCRC computes a chunk header's checksum. It covers only the magic
// and the activation sequence: the activeness bit is excluded because
// fast GC toggles it with a lone single-word update, and the next pointer
// is excluded so splicing a chunk at the tail stays a single-word atomic
// link (the pointer is validated semantically at Open instead).
func chunkCRC(seq uint64) uint32 {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], chunkMagic)
	binary.LittleEndian.PutUint64(b[4:], seq)
	return crc32.Checksum(b[:], crcTable)
}

// Type tags a log entry.
type Type uint8

// Log entry types.
const (
	TypeEmpty     Type = 0
	TypeExtent    Type = 1
	TypeSlab      Type = 2
	TypeTombstone Type = 3
)

// Record is a decoded live-extent record produced by recovery.
type Record struct {
	Addr pmem.PAddr
	Size uint64
	Slab bool
}

func encode(addr pmem.PAddr, size uint64, t Type) uint64 {
	if size >= 1<<26 {
		panic(fmt.Sprintf("blog: size %d exceeds 26-bit entry field", size))
	}
	if addr&0xFFF != 0 {
		panic(fmt.Sprintf("blog: address %#x not 4K aligned", addr))
	}
	return size | uint64(addr>>12)<<26 | uint64(t)<<62
}

func decode(e uint64) (addr pmem.PAddr, size uint64, t Type) {
	return pmem.PAddr(e>>26&(1<<36-1)) << 12, e & (1<<26 - 1), Type(e >> 62)
}

type entryRef struct {
	chunk pmem.PAddr
	slot  int
}

// vchunk is the volatile mirror of one active chunk.
type vchunk struct {
	addr   pmem.PAddr
	bits   [2]uint64 // validity bitmap over the chunk's entries
	live   int
	queued bool // sitting in the empty-candidate queue
}

func (v *vchunk) set(slot int)   { v.bits[slot/64] |= 1 << (slot % 64); v.live++ }
func (v *vchunk) clear(slot int) { v.bits[slot/64] &^= 1 << (slot % 64); v.live-- }

// Log is the bookkeeping log: one chunk chain over the log region behind
// one resource, so that consecutive appends land in one chunk and reach
// the media as sequential writes. It implements extent.Bookkeeper and
// serializes itself: the resource covers slot reservation and GC, and an
// entry's publish and fence run outside it (see RecordAlloc).
type Log struct {
	res pmem.Resource

	dev     pmem.Mem
	base    pmem.PAddr
	size    uint64
	im      interleave.Mapping
	stripes int

	perChunk int // entry capacity per chunk for this stripe count

	// alt caches the unsealed header alt bit (which of the two chain
	// pointers is live); the persistent word is sealed.
	alt uint64

	chunks *rbtree.Tree[pmem.PAddr, *vchunk]
	index  map[pmem.PAddr]entryRef // extent addr -> its normal entry
	// dormant chunks were retired by fast GC but remain linked in the
	// active chain; they are reactivated in place. free chunks are
	// unlinked (slow GC output) and must be re-linked at the tail.
	dormant []pmem.PAddr
	free    []pmem.PAddr
	// empties queues vchunks whose validity bitmap drained to zero, so
	// fast GC retires them in O(retired) instead of scanning every chunk.
	empties []*vchunk
	current *vchunk
	tail    pmem.PAddr // last chunk in the active chain
	cursor  int        // next slot in current
	nextSeq uint64     // next chunk activation sequence

	// SlowGCThreshold is the active-chain byte size beyond which MaybeGC
	// escalates from fast to slow GC.
	SlowGCThreshold uint64

	// OnGrow, when set, is called with the bytes each move of the region
	// break puts in service (InService): a chunk, and the header with the
	// first. It runs under the log's resource.
	OnGrow func(bytes uint64)

	// gcBudget is how many chunks' worth of live entries one incremental
	// slow-GC step copies (gcBudgetChunks; a test lowers it).
	gcBudget int

	// gc holds the state of an in-progress incremental slow GC (nil when
	// no slow GC is underway).
	gc *gcState

	// outstanding counts reserved-but-unpublished entry slots (see
	// reserve/publish). The record calls bump it under the resource around
	// out-of-lock publishes; GC must only run when it is zero, so it never
	// snapshots, copies or reconciles a slot whose entry word has not been
	// written yet.
	outstanding int

	lastGCCopied     int
	fastGCs, slowGCs uint64

	// gcWhileOutstanding counts GC passes that began (or stepped) while a
	// reserved slot's publish was still in flight. The outstanding gate
	// must keep this at zero: a nonzero value means GC snapshotted, copied
	// or reconciled an entry word that had not been written yet. Exposed
	// for the race tests.
	gcWhileOutstanding uint64
}

// ErrFull is returned for a record when the live set leaves no room for
// its own copy, even in a compacted log (see room). RegionSize provisions
// the region so that no heap can get there.
var ErrFull = errors.New("blog: log region exhausted")

// RegionSize returns the log-region size for a heap of heapBytes bytes.
//
// The log holds one live record per live extent, and no recorded extent
// is smaller than sizeclass.SmallMax: a large allocation is bigger and a
// slab is 64 KiB. A heap therefore holds at most heapBytes/SmallMax live
// records, heapBytes/2048 bytes of 8-byte entries. Entries pack at least
// minPerChunk to a chunk, so the chain that holds them is at most
// heapBytes/1024 bytes. Slow GC copies that chain while the old one still
// stands, and the append path keeps room for the copy (see room):
// records and tombstones may fill what the live set leaves, but the live
// set alone must fit in half the region. Four times the largest live
// chain, heapBytes/256, leaves the tombstones of one compaction cycle at
// least as much room as the live set and its copy. (The paper provisions
// about 100 MB per TB.) Small heaps get a floor of 64 chunks.
func RegionSize(heapBytes uint64) uint64 {
	liveChain := heapBytes / sizeclass.SmallMax * ChunkSize / minPerChunk
	size := (4*liveChain + ChunkSize - 1) &^ (ChunkSize - 1)
	return max(size, 64*ChunkSize)
}

// New formats a fresh log over [base, base+size).
//
// Formatting is lazy: a zeroed region already reads as a valid empty log
// — zero chain pointers and alt word unseal as zero, and a zero break word
// means "nothing carved yet" (see readBreak). The first persistent write
// happens with the first chunk carve, so creating a log that is never
// appended to costs nothing and puts nothing in service. The caller
// provides a zeroed region: core.Create formats the log in place on a
// fresh device and zeroes it first on any other (core.freshDevice).
func New(dev pmem.Mem, base pmem.PAddr, size uint64, stripes int) *Log {
	if stripes < 1 {
		stripes = 1
	}
	maxStripes := (ChunkSize - chunkHdrSize) / pmem.LineSize // one stripe per line at most
	if stripes > maxStripes {
		stripes = maxStripes
	}
	perChunk := PerChunk(stripes)
	return &Log{
		dev:             dev,
		base:            base,
		size:            size,
		im:              interleave.New(perChunk, 64, stripes, pmem.LineSize),
		stripes:         stripes,
		perChunk:        perChunk,
		chunks:          rbtree.New[pmem.PAddr, *vchunk](func(a, b pmem.PAddr) bool { return a < b }),
		index:           make(map[pmem.PAddr]entryRef),
		SlowGCThreshold: size * 3 / 4,
		gcBudget:        gcBudgetChunks,
	}
}

// EntriesPerChunk returns this log's per-chunk entry capacity.
func (l *Log) EntriesPerChunk() int { return l.perChunk }

func (l *Log) entryAddr(chunk pmem.PAddr, slot int) pmem.PAddr {
	return chunk + chunkHdrSize + pmem.PAddr(l.im.ByteOffset(slot))
}

func (l *Log) headPtrOff() pmem.PAddr {
	if l.alt&1 == 0 {
		return l.base + offPtrA
	}
	return l.base + offPtrB
}

func (l *Log) sparePtrOff() pmem.PAddr {
	if l.alt&1 == 0 {
		return l.base + offPtrB
	}
	return l.base + offPtrA
}

// newChunk obtains a chunk and makes it current. Preference order:
// reactivate a dormant chunk in place, relink a free chunk at the tail,
// or carve a fresh chunk from the region break. Whether the append may
// take an unlinked chunk is the record call's decision (room).
func (l *Log) newChunk(c *pmem.Ctx) error {
	var addr pmem.PAddr
	switch {
	case len(l.dormant) > 0:
		// Dormant chunks stay linked where they are; wipe stale entries,
		// bump the activation sequence and flip the activeness bit. The
		// wipe is a sequential burst amortized over EntriesPerChunk
		// appends.
		addr = l.dormant[len(l.dormant)-1]
		l.dormant = l.dormant[:len(l.dormant)-1]
		l.dev.Zero(addr+chunkHdrSize, ChunkSize-chunkHdrSize)
		c.Flush(pmem.CatMeta, addr+chunkHdrSize, ChunkSize-chunkHdrSize)
		c.Fence()
		l.dev.WriteU32(addr+coActive, 1)
		l.dev.WriteU64(addr+coSeq, l.nextSeq)
		l.dev.WriteU32(addr+coCRC, chunkCRC(l.nextSeq))
		c.Flush(pmem.CatMeta, addr, chunkHdrSize)
		c.Fence()
	case len(l.free) > 0:
		addr = l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		l.dev.Zero(addr+chunkHdrSize, ChunkSize-chunkHdrSize)
		c.Flush(pmem.CatMeta, addr+chunkHdrSize, ChunkSize-chunkHdrSize)
		l.initAndLink(c, addr)
	default:
		brk := pmem.PAddr(l.readBreak())
		if uint64(brk)+ChunkSize > uint64(l.base)+l.size {
			return l.full()
		}
		addr = brk
		l.advanceBreak(c, uint64(brk))
		l.initAndLink(c, addr)
	}
	l.nextSeq++
	v := &vchunk{addr: addr}
	l.chunks.Put(addr, v)
	l.current = v
	l.cursor = 0
	return nil
}

func (l *Log) full() error {
	return fmt.Errorf("%w (%d bytes, %d live records)", ErrFull, l.size, len(l.index))
}

// room reports whether an append may go ahead and still leave slow GC the
// chunks to copy the live set: the unlinked chunks, less the one the
// append takes when the current chunk is full and no dormant one is at
// hand, must hold the chain of the live records as they stand after the
// append — delta is +1 for a record, -1 for a tombstone. Chunks of an
// incremental GC underway count as unlinked: aborting it returns them.
//
// Every record is admitted this way, so whenever an append finds no room
// a slow GC can run at once: a synchronous one copies exactly the live
// set. A tombstone that still finds no room after one (makeRoom) goes
// ahead anyway; allocations are then refused until frees have shrunk the
// live set back under the unlinked chunks.
func (l *Log) room(delta int) bool {
	unlinked := len(l.free) + int((uint64(l.base)+l.size-l.readBreak())/ChunkSize)
	if l.gc != nil {
		unlinked += len(l.gc.chunks)
	}
	if (l.current == nil || l.cursor >= l.perChunk) && len(l.dormant) == 0 {
		unlinked--
	}
	return unlinked >= (len(l.index)+delta+l.perChunk-1)/l.perChunk
}

// makeRoom compacts the log for an append that found no room (see room):
// it waits for the publishes in flight (GC must not run while a reserved
// slot is unwritten), retires empty chunks, and if that is not enough
// runs slow GC to completion rather than in gcBudgetChunks steps. It
// reports whether there is room now; there is not only when the live set
// leaves no room for its own copy, which RegionSize rules out for any
// heap. The caller holds the resource.
func (l *Log) makeRoom(c *pmem.Ctx, delta int) bool {
	for l.outstanding != 0 {
		l.res.Release(c)
		runtime.Gosched()
		l.res.Acquire(c)
	}
	l.FastGC(c)
	if l.room(delta) {
		return true
	}
	// Compact only if a compacted log could have room: its chain then
	// holds the live records alone.
	chunks := int((l.size - headerSize) / ChunkSize)
	live := (len(l.index) + l.perChunk - 1) / l.perChunk
	if chunks-live < (len(l.index)+delta+l.perChunk-1)/l.perChunk {
		return false
	}
	_, _ = l.SlowGC(c) // refused up front when the region cannot hold the copy
	return l.room(delta)
}

// readBreak returns the region break, mapping the never-written zero
// word of a lazily formatted log to its initial value (see New).
func (l *Log) readBreak() uint64 {
	brk := l.dev.ReadU64(l.base + offBreak)
	if brk == 0 {
		brk = uint64(l.base) + headerSize
	}
	return brk
}

// advanceBreak persists the region break one chunk past brk, the break
// readBreak returned, and reports what that puts in service to OnGrow.
func (l *Log) advanceBreak(c *pmem.Ctx, brk uint64) {
	c.PersistU64(pmem.CatMeta, l.base+offBreak, brk+ChunkSize)
	if l.OnGrow != nil {
		grown := uint64(ChunkSize)
		if brk == uint64(l.base)+headerSize {
			grown += headerSize
		}
		l.OnGrow(grown)
	}
}

// InService returns the bytes of the region the log has put in service:
// from its base to its break once a chunk has been carved, none before.
// They only grow: chunks that slow GC frees are reused below the break.
func (l *Log) InService() uint64 {
	l.res.Lock()
	defer l.res.Unlock()
	brk := l.dev.ReadU64(l.base + offBreak)
	if brk <= uint64(l.base)+headerSize {
		return 0
	}
	return brk - uint64(l.base)
}

// initAndLink writes a fresh header for an unlinked chunk and splices it
// at the tail of the active chain (header persisted before the link so a
// crash never exposes an uninitialized chunk).
func (l *Log) initAndLink(c *pmem.Ctx, addr pmem.PAddr) {
	l.dev.WriteU32(addr+coMagic, chunkMagic)
	l.dev.WriteU32(addr+coActive, 1)
	l.dev.WriteU64(addr+coNext, 0)
	l.dev.WriteU64(addr+coSeq, l.nextSeq)
	l.dev.WriteU32(addr+coCRC, chunkCRC(l.nextSeq))
	c.Flush(pmem.CatMeta, addr, chunkHdrSize)
	c.Fence()
	if l.tail == pmem.Null {
		c.PersistU64(pmem.CatMeta, l.headPtrOff(), pmem.SealU64(uint64(addr)))
	} else {
		c.PersistU64(pmem.CatMeta, l.tail+coNext, uint64(addr))
	}
	c.Fence()
	l.tail = addr
}

// reserve claims the next entry slot (taking a new chunk when the
// current one is full) and marks its validity bit, leaving the
// persistent entry word zero. Callers hold the resource; publish may
// then run outside it. A crash between the two leaves a zero slot,
// which recovery skips (the entry scan tolerates interior holes and the
// cursor resumes after the last occupied slot), and the set vbit keeps
// fast GC from retiring — and dormant reactivation from wiping — the
// chunk while the slot is in flight.
func (l *Log) reserve(c *pmem.Ctx) (entryRef, error) {
	if l.current == nil || l.cursor >= l.perChunk {
		if err := l.newChunk(c); err != nil {
			return entryRef{}, err
		}
	}
	slot := l.cursor
	l.cursor++
	l.current.set(slot)
	return entryRef{chunk: l.current.addr, slot: slot}, nil
}

// publish writes and flushes a reserved slot's entry word. It never
// fences: the record call that reserved the slot (or the whole group of
// slots) issues the one trailing fence. Each entry is flushed
// individually, so a crash mid-group persists an independently valid
// prefix. Safe outside the log's lock: the slot is privately owned by the
// reserver, an 8-byte aligned store is atomic on the media, and the
// device's line locks order the flush against neighboring slots' writes
// in the same cache line.
func (l *Log) publish(c *pmem.Ctx, ref entryRef, e uint64) {
	c.PersistU64(pmem.CatMeta, l.entryAddr(ref.chunk, ref.slot), e)
}

// SelfLocked implements extent.Bookkeeper: the log serializes its own
// calls, so the extent layer takes no external bookkeeper resource.
func (l *Log) SelfLocked() bool { return true }

// DataOffset implements extent.Bookkeeper: the log lives in its own
// region, so heap chunks carry no per-chunk reservation.
func (l *Log) DataOffset() uint64 { return 0 }

// RecordAlloc persists that [addr,addr+size) is live. It fails only when
// the live set leaves no room for its copy (ErrFull).
//
// The resource covers only slot reservation (a cursor bump, an index
// insert, the occasional chunk carve); the entry's flush and the trailing
// fence run outside it. Concurrent appends therefore serialize only on
// the near-free reservation — the media write is slot-private — instead
// of queueing behind each other's flush+fence. The outstanding counter
// keeps GC away while any reserved slot's word is still unwritten.
func (l *Log) RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	t := TypeExtent
	if slab {
		t = TypeSlab
	}
	e := encode(addr, size, t)
	l.res.Acquire(c)
	var ref entryRef
	var err error
	if l.room(1) || l.makeRoom(c, 1) {
		ref, err = l.reserve(c)
	} else {
		err = l.full()
	}
	if err == nil {
		l.index[addr] = ref
		l.outstanding++
	}
	l.res.Release(c)
	if err != nil {
		return err
	}
	l.publish(c, ref, e)
	c.Fence()
	l.res.Lock()
	l.outstanding--
	l.res.Unlock()
	return nil
}

// RecordFree persists a tombstone for every address, with one trailing
// fence, and runs the GC policy (MaybeGC) first. A single free is a group
// of one. A group that finds no room (see room) is split there: the
// tombstones reserved so far are published and fenced, the log compacts
// (makeRoom), and the rest follow as a group of their own — so a free
// never fails for want of log space while the region has a chunk left.
// It returns how many tombstones it persisted: on an error (an
// unrecorded address) those are addrs[:n], persisted and fenced.
func (l *Log) RecordFree(c *pmem.Ctx, addrs []pmem.PAddr) (int, error) {
	done, first, force := 0, true, false
	for {
		k, err := l.freeGroup(c, addrs[done:], first, force)
		done += k
		if err != errNoRoom {
			return done, err
		}
		first = false
		l.res.Acquire(c)
		force = !l.makeRoom(c, -1)
		l.res.Release(c)
	}
}

// errNoRoom splits a tombstone group where room says no.
var errNoRoom = errors.New("blog: no room before a compaction")

// freeGroup tombstones addrs until one fails or, unless force, finds no
// room. Like RecordAlloc, only slot reservation — with the index removals
// and vbit invalidations — runs under the resource; the publishes and the
// single fence run outside it. gc runs the GC policy first.
func (l *Log) freeGroup(c *pmem.Ctx, addrs []pmem.PAddr, gc, force bool) (int, error) {
	var buf [8]entryRef // a small group's slots never leave the stack
	refs := buf[:0]
	l.res.Acquire(c)
	if gc && l.outstanding == 0 {
		l.MaybeGC(c)
	}
	var err error
	for _, a := range addrs {
		ref, ok := l.index[a]
		if !ok {
			err = fmt.Errorf("blog: free of unrecorded extent %#x", a)
			break
		}
		if !force && !l.room(-1) {
			err = errNoRoom
			break
		}
		var tref entryRef
		if tref, err = l.reserve(c); err != nil {
			break
		}
		delete(l.index, a)
		if v, ok := l.chunks.Get(ref.chunk); ok {
			v.clear(ref.slot)
			l.noteEmpty(v)
		}
		refs = append(refs, tref)
	}
	if len(refs) > 0 {
		l.outstanding++ // one increment covers the whole group
	}
	l.res.Release(c)
	if len(refs) == 0 {
		return 0, err
	}
	for k, tref := range refs {
		l.publish(c, tref, encode(addrs[k], 0, TypeTombstone))
	}
	c.Fence()
	l.res.Lock()
	l.outstanding--
	l.res.Unlock()
	return len(refs), err
}

// OpenGC runs the GC policy once on a reopened log (MaybeGC, what its
// next free would run first) and reports whether the log was over its
// slow-GC threshold: compacted, or with a compaction begun.
func (l *Log) OpenGC(c *pmem.Ctx) bool {
	l.res.Acquire(c)
	defer l.res.Release(c)
	before := l.slowGCs
	l.MaybeGC(c)
	return l.gc != nil || l.slowGCs != before
}

// Res exposes the log's resource for contention instrumentation.
func (l *Log) Res() *pmem.Resource { return &l.res }

// noteEmpty queues a fully invalidated chunk for fast GC.
func (l *Log) noteEmpty(v *vchunk) {
	if v.live == 0 && !v.queued && v != l.current {
		v.queued = true
		l.empties = append(l.empties, v)
	}
}

// Live returns the number of live (indexed) extents.
func (l *Log) Live() int { return len(l.index) }

// ActiveChunks returns the number of chunks in the active chain.
func (l *Log) ActiveChunks() int { return l.chunks.Len() }

// FreeChunks returns the length of the free-chunk list.
func (l *Log) FreeChunks() int { return len(l.free) }

// GCCounts returns how many fast and slow GC passes have run.
func (l *Log) GCCounts() (fast, slow uint64) { return l.fastGCs, l.slowGCs }

// GCWhileOutstanding returns how many GC passes began while a publish
// was in flight — zero whenever the outstanding gate works.
func (l *Log) GCWhileOutstanding() uint64 { return l.gcWhileOutstanding }
