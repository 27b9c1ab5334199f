// Package phash implements a crash-consistent persistent hash index in
// the spirit of the persistent hashing schemes the paper cites as
// allocator consumers (level hashing, Dash): a fixed bucket directory in
// persistent memory with 8-slot buckets, one-byte fingerprints to avoid
// probing full keys, 8-byte values stored inline in the entry, and
// overflow buckets chained through the allocator. The directory and the
// overflow buckets are the index's only allocations: an insert into a
// bucket with a free slot, an update and a delete make no allocator call.
//
// Persistent bucket layout (160 B, 2.5 cache lines):
//
//	[0,8)    fingerprint word, one byte per slot, 0 = empty slot
//	[8,16)   overflow bucket PAddr (0 = none)
//	[16,32)  reserved
//	[32,160) 8 entries x (key u64, value u64)
//
// Consistency: the fingerprint word is the commit word. An insert writes
// the entry, flushes and fences it, and then publishes it with one 8-byte
// atomic persist that sets the slot's fingerprint byte; an update is one
// 8-byte atomic persist of the entry's value word; a delete is one 8-byte
// atomic persist that clears the fingerprint byte (the stale entry stays
// behind, unreachable, until an insert overwrites it — again before its
// fingerprint is set). A slot is therefore either empty or whole after a
// crash at any flush boundary and under any 8-byte tearing of a line.
//
// The entry and the commit word are kept on different cache lines so the
// commit does not re-flush the line the entry flush just wrote (800 ns
// against 250 ns on the paper's device, PAPER.md §3.1). Buckets are 160
// bytes, so they start alternately at offset 0 and 32 of a line: at
// offset 32 the header shares its line with the previous bucket only, at
// offset 0 it shares it with slots 0 and 1, which is why findSlot hands
// out the highest free slot first and slots 0 and 1 last.
//
// A bucket chained as overflow is built off to the side — zeroed, its
// first entry and fingerprint written, flushed and fenced — and becomes
// reachable, entry included, with the one persist of its predecessor's
// overflow word. A crash before that persist leaves a recorded-but-
// unreachable 160-byte block that WAL replay or an Objects walk resolves.
package phash

import (
	"encoding/binary"
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// Slots per bucket.
const Slots = 8

// BucketBytes is the persistent footprint of one bucket.
const BucketBytes = 160

// Bucket field offsets.
const (
	bFPs      = 0
	bOverflow = 8
	bEntries  = 32

	entryBytes = 16
)

// Header layout (one page, referenced from the root slot).
const (
	hMagic    = 0
	hNBuckets = 8
	hDir      = 16

	phashMagic = 0x5048415348763221 // "PHASHv2!"
	// v1Magic marked the layout this one replaces: a presence bitmap at
	// bucket offset 0, fingerprints at 8 and entries pointing at separately
	// allocated values. Its offsets mean other things now, so Open refuses
	// it.
	v1Magic = 0x5048415348363421 // "PHASH64!"
)

// FormatError is returned by Open for an index written in a bucket layout
// this build does not read.
type FormatError struct {
	RootSlot int
	Magic    uint64
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("phash: index at root slot %d has format %q (presence bitmap and out-of-line values, written by an older build); this build reads only %q and cannot convert it",
		e.RootSlot, magicString(e.Magic), magicString(phashMagic))
}

func magicString(m uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], m)
	return string(b[:])
}

const lockStripes = 64

// Map is a persistent hash index bound to a heap.
type Map struct {
	heap     alloc.Heap
	dev      pmem.Dev
	header   pmem.PAddr
	dir      pmem.PAddr
	nBuckets uint64
	locks    [lockStripes]pmem.Resource
}

func hash64(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	key *= 0xC4CEB9FE1A85EC53
	key ^= key >> 33
	return key
}

// fp is a key's one-byte fingerprint. It is never 0: a zero byte in the
// fingerprint word is the persistent encoding of an empty slot.
func fp(h uint64) byte {
	b := byte(h >> 56)
	if b == 0 {
		b = 1
	}
	return b
}

// Create builds an empty index with nBuckets (rounded up to a power of
// two) whose header address persists in the heap's rootSlot. The last
// argument was the size of the per-entry value blob; values live in the
// entry now and it is ignored, kept only because the frozen benchmark
// harness passes it.
func Create(h alloc.Heap, th alloc.Thread, rootSlot int, nBuckets int, _ uint64) (*Map, error) {
	n := uint64(1)
	for n < uint64(nBuckets) {
		n *= 2
	}
	c := th.Ctx()
	dev := h.Device()

	dir, err := th.Malloc(n * BucketBytes)
	if err != nil {
		return nil, err
	}
	dev.Zero(dir, int(n*BucketBytes))
	c.Flush(pmem.CatOther, dir, int(n*BucketBytes))

	header, err := th.MallocTo(h.RootSlot(rootSlot), 4096)
	if err != nil {
		_ = th.Free(dir)
		return nil, err
	}
	dev.WriteU64(header+hMagic, phashMagic)
	dev.WriteU64(header+hNBuckets, n)
	dev.WriteU64(header+hDir, uint64(dir))
	c.Flush(pmem.CatOther, header, 24)
	c.Fence()

	return &Map{heap: h, dev: dev, header: header, dir: dir, nBuckets: n}, nil
}

// Open attaches to an existing index via the heap's root slot. An index
// in the older out-of-line-value layout yields a *FormatError.
func Open(h alloc.Heap, rootSlot int) (*Map, error) {
	dev := h.Device()
	header := pmem.PAddr(dev.ReadU64(h.RootSlot(rootSlot)))
	var magic uint64
	if header != pmem.Null {
		magic = dev.ReadU64(header + hMagic)
	}
	switch magic {
	case phashMagic:
	case v1Magic:
		return nil, &FormatError{RootSlot: rootSlot, Magic: magic}
	default:
		return nil, fmt.Errorf("phash: no index at root slot %d", rootSlot)
	}
	return &Map{
		heap:     h,
		dev:      dev,
		header:   header,
		dir:      pmem.PAddr(dev.ReadU64(header + hDir)),
		nBuckets: dev.ReadU64(header + hNBuckets),
	}, nil
}

func (m *Map) bucketAddr(i uint64) pmem.PAddr {
	return m.dir + pmem.PAddr(i*BucketBytes)
}

func entryAddr(b pmem.PAddr, slot int) pmem.PAddr {
	return b + bEntries + pmem.PAddr(slot*entryBytes)
}

func (m *Map) lockFor(h uint64) *pmem.Resource {
	return &m.locks[(h&(m.nBuckets-1))%lockStripes]
}

// findSlot scans the bucket chain for key. It returns the bucket and slot
// holding it, or (with found=false) the chain's last bucket and the free
// slot an insert should take: in the first bucket that has one, the
// highest-numbered (see the package comment), freeSlot=-1 when the chain
// is full. Caller holds the stripe lock.
func (m *Map) findSlot(c *pmem.Ctx, key uint64, f byte) (b pmem.PAddr, slot int, found bool, freeB pmem.PAddr, freeSlot int) {
	freeB, freeSlot = pmem.Null, -1
	b = m.bucketAddr(hash64(key) & (m.nBuckets - 1))
	for {
		fps := m.dev.ReadU64(b + bFPs)
		c.Charge(pmem.CatSearch, 10)
		for s := Slots - 1; s >= 0; s-- {
			switch byte(fps >> (8 * s)) {
			case 0:
				if freeSlot < 0 {
					freeB, freeSlot = b, s
				}
			case f:
				c.Charge(pmem.CatSearch, 4)
				if m.dev.ReadU64(entryAddr(b, s)) == key {
					return b, s, true, freeB, freeSlot
				}
			}
		}
		next := pmem.PAddr(m.dev.ReadU64(b + bOverflow))
		if next == pmem.Null {
			return b, -1, false, freeB, freeSlot
		}
		b = next
	}
}

// Put inserts or updates key with value.
func (m *Map) Put(th alloc.Thread, key, value uint64) error {
	c := th.Ctx()
	h := hash64(key)
	f := fp(h)
	lk := m.lockFor(h)
	lk.Acquire(c)
	defer lk.Release(c)

	lastB, slot, found, freeB, freeSlot := m.findSlot(c, key, f)
	if found {
		c.PersistU64(pmem.CatOther, entryAddr(lastB, slot)+8, value)
		c.Fence()
		return nil
	}
	if freeSlot < 0 {
		// Chain a fresh overflow bucket that already holds the entry; the
		// persist of the link publishes both.
		nb, err := th.Malloc(BucketBytes)
		if err != nil {
			return err
		}
		const s = Slots - 1
		m.dev.Zero(nb, BucketBytes)
		m.dev.WriteU64(entryAddr(nb, s), key)
		m.dev.WriteU64(entryAddr(nb, s)+8, value)
		m.dev.WriteU64(nb+bFPs, uint64(f)<<(8*s))
		c.Flush(pmem.CatOther, nb, BucketBytes)
		c.Fence()
		c.PersistU64(pmem.CatMeta, lastB+bOverflow, uint64(nb))
		c.Fence()
		return nil
	}

	ea := entryAddr(freeB, freeSlot)
	m.dev.WriteU64(ea, key)
	m.dev.WriteU64(ea+8, value)
	c.Flush(pmem.CatOther, ea, entryBytes)
	c.Fence()
	// Commit point.
	fps := m.dev.ReadU64(freeB + bFPs)
	c.PersistU64(pmem.CatMeta, freeB+bFPs, fps|uint64(f)<<(8*freeSlot))
	c.Fence()
	return nil
}

// Get returns the value stored under key.
func (m *Map) Get(th alloc.Thread, key uint64) (uint64, bool) {
	c := th.Ctx()
	h := hash64(key)
	lk := m.lockFor(h)
	lk.Acquire(c)
	defer lk.Release(c)
	b, slot, found, _, _ := m.findSlot(c, key, fp(h))
	if !found {
		return 0, false
	}
	return m.dev.ReadU64(entryAddr(b, slot) + 8), true
}

// Delete removes key and reports whether it was present. It makes no
// allocator call and never fails; the error result is kept for callers
// written against the older, freeing index.
func (m *Map) Delete(th alloc.Thread, key uint64) (bool, error) {
	c := th.Ctx()
	h := hash64(key)
	lk := m.lockFor(h)
	lk.Acquire(c)
	defer lk.Release(c)
	b, slot, found, _, _ := m.findSlot(c, key, fp(h))
	if !found {
		return false, nil
	}
	// Clearing the fingerprint byte is the atomic delete.
	fps := m.dev.ReadU64(b + bFPs)
	c.PersistU64(pmem.CatMeta, b+bFPs, fps&^(0xFF<<(8*slot)))
	c.Fence()
	return true, nil
}

// Len counts live entries by walking every bucket chain.
func (m *Map) Len() int {
	n := 0
	for i := uint64(0); i < m.nBuckets; i++ {
		for b := m.bucketAddr(i); b != pmem.Null; b = pmem.PAddr(m.dev.ReadU64(b + bOverflow)) {
			for fps := m.dev.ReadU64(b + bFPs); fps != 0; fps >>= 8 {
				if byte(fps) != 0 {
					n++
				}
			}
		}
	}
	return n
}
