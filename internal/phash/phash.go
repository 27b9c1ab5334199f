// Package phash implements a crash-consistent persistent hash index in
// the spirit of the persistent hashing schemes the paper cites as
// allocator consumers (level hashing, Dash): a fixed bucket directory in
// persistent memory with 8-slot buckets, 8-byte values stored inline, and
// overflow buckets chained through the allocator. The directory and the
// overflow buckets are the index's only allocations: an insert into a
// bucket with a free slot, an update and a delete make no allocator call.
//
// Persistent bucket layout (160 B, 2.5 cache lines):
//
//	[0,64)    8 key words
//	[64,128)  8 value words, 0 = empty slot
//	[128,136) overflow bucket PAddr (0 = none)
//	[136,160) reserved
//
// Consistency: a slot's value word is its commit word, for insert, update
// and delete alike, and every commit is one 8-byte atomic persist. An
// insert writes the key, flushes it, and then publishes the slot by
// persisting a non-zero value; an update persists the new value; a delete
// persists zero (the stale key stays behind, unreachable, until an insert
// overwrites it — while the value is still zero). A slot is therefore
// either empty or whole after a crash at any flush boundary and under any
// 8-byte tearing of a line. The value 0 is stored as the word ^0, which
// makes ^0 the one value Put refuses.
//
// A slot's key and value words are exactly one cache line apart, whatever
// the bucket's alignment, so the commit never re-flushes the line the key
// flush just wrote (800 ns against 250 ns on the paper's device, PAPER.md
// §3.1) and follows it as a sequential flush.
//
// Because the commit word is a plain 8-byte slot, it can be the slot of
// an alloc.Thread.Publish: Cursor.Publish binds a key to an allocator block
// — and unbinds the block it supersedes — under one WAL entry, which is
// how nvkv.Store keeps every record either reachable or free. A bucket
// chained as overflow is attached the same way: reserved, zeroed with its
// first key in place, flushed, and published into its predecessor's
// overflow word.
package phash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// Slots per bucket.
const Slots = 8

// BucketBytes is the persistent footprint of one bucket.
const BucketBytes = 160

// Bucket field offsets.
const (
	bKeys     = 0
	bValues   = 64
	bOverflow = 128
)

// Header layout (one page, referenced from the root slot).
const (
	hMagic    = 0
	hNBuckets = 8
	hDir      = 16

	phashMagic = 0x5048415348763321 // "PHASHv3!"
	// Earlier layouts, whose bucket offsets mean other things: v2 committed
	// through a fingerprint word at bucket offset 0 with (key, value) pairs
	// from offset 32; v1 kept a presence bitmap there and pointed at
	// separately allocated values. Open refuses both.
	v2Magic = 0x5048415348763221 // "PHASHv2!"
	v1Magic = 0x5048415348363421 // "PHASH64!"
)

// ErrReservedValue is returned by Put for the value ^0: that word stands
// for the value 0, a zero word being the persistent encoding of an empty
// slot.
var ErrReservedValue = errors.New("phash: ^0 is not a storable value")

// zeroWord is the value word of a slot that holds the value 0.
const zeroWord = ^uint64(0)

func toWord(v uint64) uint64 {
	if v == 0 {
		return zeroWord
	}
	return v
}

func fromWord(w uint64) uint64 {
	if w == zeroWord {
		return 0
	}
	return w
}

// ErrStale is returned by Cursor.Publish when the index does not hold, for
// the key, the block the caller says it supersedes.
var ErrStale = errors.New("phash: key is not bound to the block to supersede")

// FormatError is returned by Open for an index written in a bucket layout
// this build does not read.
type FormatError struct {
	RootSlot int
	Magic    uint64
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("phash: index at root slot %d has format %q, the bucket layout of an older build; this build reads only %q and cannot convert it",
		e.RootSlot, magicString(e.Magic), magicString(phashMagic))
}

func magicString(m uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], m)
	return string(b[:])
}

// lockStripes is how many keys' chains can be held at once. nvkv.Store
// holds a stripe from its lookup to its publish, so this is also the
// store's exclusion granularity.
const lockStripes = 256

// Map is a persistent hash index bound to a heap.
type Map struct {
	dev pmem.Dev
	// mem is dev's concrete image view: a chain scan reads sixteen words a
	// bucket, through one bounds check instead of sixteen interface calls.
	mem      pmem.Mem
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

	header, err := alloc.MallocTo(th, h.RootSlot(rootSlot), 4096)
	if err != nil {
		_ = th.Free(dir) // the MallocTo error is the one to report
		return nil, err
	}
	dev.WriteU64(header+hMagic, phashMagic)
	dev.WriteU64(header+hNBuckets, n)
	dev.WriteU64(header+hDir, uint64(dir))
	c.Flush(pmem.CatOther, header, 24)
	c.Fence()

	return &Map{dev: dev, mem: dev.Mem(), header: header, dir: dir, nBuckets: n}, nil
}

// Open attaches to an existing index via the heap's root slot. An index
// in an older bucket layout yields a *FormatError.
func Open(h alloc.Heap, rootSlot int) (*Map, error) {
	dev := h.Device()
	header := pmem.PAddr(dev.ReadU64(h.RootSlot(rootSlot)))
	var magic uint64
	if header != pmem.Null {
		magic = dev.ReadU64(header + hMagic)
	}
	switch magic {
	case phashMagic:
	case v2Magic, v1Magic:
		return nil, &FormatError{RootSlot: rootSlot, Magic: magic}
	default:
		return nil, fmt.Errorf("phash: no index at root slot %d", rootSlot)
	}
	return &Map{
		dev:      dev,
		mem:      dev.Mem(),
		header:   header,
		dir:      pmem.PAddr(dev.ReadU64(header + hDir)),
		nBuckets: dev.ReadU64(header + hNBuckets),
	}, nil
}

func (m *Map) bucketAddr(i uint64) pmem.PAddr {
	return m.dir + pmem.PAddr(i*BucketBytes)
}

func keyAddr(b pmem.PAddr, slot int) pmem.PAddr   { return b + bKeys + pmem.PAddr(slot*8) }
func valueAddr(b pmem.PAddr, slot int) pmem.PAddr { return b + bValues + pmem.PAddr(slot*8) }

// place is where findSlot says key lives or should go.
type place struct {
	b    pmem.PAddr // bucket of slot; the chain's last bucket when slot < 0
	slot int        // -1: key is absent and the chain has no empty slot
	// live: the slot holds key with a non-zero value. Otherwise it is an
	// empty slot an insert may take; keyed says it already holds key (the
	// key was deleted from it), so the insert need not write the key.
	live, keyed bool
}

// findSlot scans key's bucket chain from its directory bucket b. An absent
// key is given the empty slot it was last deleted from if there is one,
// else the chain's first empty slot. Caller holds the stripe lock.
func (m *Map) findSlot(c *pmem.Ctx, b pmem.PAddr, key uint64) place {
	free := place{slot: -1}
	for {
		c.Charge(pmem.CatSearch, 10)
		// Reads only: every writer of this bucket holds the stripe lock.
		words := m.mem.Bytes(b, bOverflow+8)
		for s := 0; s < Slots; s++ {
			v := binary.LittleEndian.Uint64(words[bValues+8*s:])
			isKey := binary.LittleEndian.Uint64(words[bKeys+8*s:]) == key
			switch {
			case v != 0 && isKey:
				c.Charge(pmem.CatSearch, 4)
				return place{b: b, slot: s, live: true}
			case v == 0 && isKey && !free.keyed:
				free = place{b: b, slot: s, keyed: true}
			case v == 0 && free.slot < 0:
				free = place{b: b, slot: s}
			}
		}
		next := pmem.PAddr(binary.LittleEndian.Uint64(words[bOverflow:]))
		if next == pmem.Null {
			if free.slot < 0 {
				free.b = b
			}
			return free
		}
		b = next
	}
}

// claim readies an empty slot for key and returns its value word, still
// zero: the slot findSlot offered, with the key written and flushed — not
// fenced; the caller's commit sequence fences before it persists the
// value — or slot 0 of a fresh overflow bucket when the chain is full. value
// is what a chained bucket is built with in that slot: Put passes the
// value itself (the link is then the commit), Cursor.Publish zero.
func (m *Map) claim(th alloc.Thread, key uint64, p place, value uint64) (pmem.PAddr, error) {
	c := th.Ctx()
	if p.slot >= 0 {
		if !p.keyed {
			m.dev.WriteU64(keyAddr(p.b, p.slot), key)
			c.FlushU64(pmem.CatOther, keyAddr(p.b, p.slot))
		}
		return valueAddr(p.b, p.slot), nil
	}
	nb, err := th.Reserve(BucketBytes)
	if err != nil {
		return pmem.Null, err
	}
	m.dev.Zero(nb, BucketBytes)
	m.dev.WriteU64(keyAddr(nb, 0), key)
	m.dev.WriteU64(valueAddr(nb, 0), value)
	c.Flush(pmem.CatOther, nb, BucketBytes)
	if err := th.Publish(p.b+bOverflow, nb, pmem.Null); err != nil {
		return pmem.Null, errors.Join(err, th.Unreserve(nb))
	}
	return valueAddr(nb, 0), nil
}

// Cursor is one probe of the index: key's stripe, held, and the place
// findSlot gave the key under it. Whoever holds a cursor excludes every
// other operation on the key (and on the keys that share its stripe) until
// Release, so a caller can read the key's value, decide, and commit on the
// same slot without the index scanning the chain again. A cursor commits
// at most once and is not to be held across anything that blocks.
type Cursor struct {
	m   *Map
	c   *pmem.Ctx
	lk  *pmem.Resource
	key uint64
	p   place
}

// Find locks key's stripe and locates key. The caller must Release.
func (m *Map) Find(th alloc.Thread, key uint64) Cursor {
	c := th.Ctx()
	i := hash64(key) & (m.nBuckets - 1)
	lk := &m.locks[i%lockStripes]
	lk.Acquire(c)
	return Cursor{m: m, c: c, lk: lk, key: key, p: m.findSlot(c, m.bucketAddr(i), key)}
}

// Release unlocks the stripe.
func (cur *Cursor) Release() { cur.lk.Release(cur.c) }

// Value returns the value stored under the key and whether there is one.
func (cur *Cursor) Value() (uint64, bool) {
	if !cur.p.live {
		return 0, false
	}
	return fromWord(cur.m.dev.ReadU64(valueAddr(cur.p.b, cur.p.slot))), true
}

// Publish binds the key to the allocator block new in place of old,
// through th.Publish on the slot's value word: the index entry, new's
// allocation and old's release commit or vanish together. new is a
// reservation of th the caller has filled and flushed (Null deletes the
// key); old is the block Value reported (Null when the key is absent). On
// an error the reservation is still the caller's.
func (cur *Cursor) Publish(th alloc.Thread, new, old pmem.PAddr) error {
	m, p := cur.m, cur.p
	var va pmem.PAddr
	if p.live {
		if va = valueAddr(p.b, p.slot); pmem.PAddr(m.dev.ReadU64(va)) != old {
			return ErrStale
		}
	} else {
		if old != pmem.Null {
			return ErrStale
		}
		var err error
		if va, err = m.claim(th, cur.key, p, 0); err != nil {
			return err
		}
	}
	return th.Publish(va, new, old)
}

// Put inserts or updates key with value, which must not be ^0.
func (m *Map) Put(th alloc.Thread, key, value uint64) error {
	if value == zeroWord {
		return ErrReservedValue
	}
	value = toWord(value)
	cur := m.Find(th, key)
	defer cur.Release()
	c, p := cur.c, cur.p
	var va pmem.PAddr
	if p.live {
		va = valueAddr(p.b, p.slot)
	} else {
		var err error
		if va, err = m.claim(th, key, p, value); err != nil || p.slot < 0 {
			return err // a chained bucket came with the value in it
		}
		if !p.keyed {
			c.Fence()
		}
	}
	// Commit point.
	c.PersistU64(pmem.CatOther, va, value)
	c.Fence()
	return nil
}

// Get returns the value stored under key.
func (m *Map) Get(th alloc.Thread, key uint64) (uint64, bool) {
	cur := m.Find(th, key)
	defer cur.Release()
	return cur.Value()
}

// Delete removes key and reports whether it was present. It makes no
// allocator call and never fails; the error result is kept for callers
// written against the older, freeing index.
func (m *Map) Delete(th alloc.Thread, key uint64) (bool, error) {
	cur := m.Find(th, key)
	defer cur.Release()
	if !cur.p.live {
		return false, nil
	}
	// Zeroing the value word is the atomic delete.
	cur.c.PersistU64(pmem.CatOther, valueAddr(cur.p.b, cur.p.slot), 0)
	cur.c.Fence()
	return true, nil
}

// Len counts live entries by walking every bucket chain.
func (m *Map) Len() int { return m.count(0, m.nBuckets) }

// Count is Len on up to workers goroutines, each walking the chains of a
// contiguous range of directory buckets. A chain belongs to the range of
// its directory bucket, so every bucket is counted once.
func (m *Map) Count(workers int) int {
	w := min(uint64(max(workers, 1)), m.nBuckets)
	counts := make([]int, w)
	var wg sync.WaitGroup
	for i := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i] = m.count(m.nBuckets*i/w, m.nBuckets*(i+1)/w)
		}()
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// count counts the live entries of the chains of directory buckets
// [lo, hi).
func (m *Map) count(lo, hi uint64) int {
	n := 0
	m.walk(lo, hi, func(_ pmem.PAddr, values []byte) {
		for s := 0; s < Slots; s++ {
			if binary.LittleEndian.Uint64(values[8*s:]) != 0 {
				n++
			}
		}
	})
	return n
}

// References calls fn with the address of every heap block the index
// holds a pointer to: its header, its directory, each overflow bucket and,
// read as block addresses, the values (what Cursor.Publish bound). For an
// index used through it alone that is the application's whole reachable
// set: after recovery the heap's allocated objects must be exactly these.
func (m *Map) References(fn func(addr pmem.PAddr)) {
	fn(m.header)
	fn(m.dir)
	end := m.bucketAddr(m.nBuckets)
	m.walk(0, m.nBuckets, func(b pmem.PAddr, values []byte) {
		if b < m.dir || b >= end {
			fn(b)
		}
		for s := 0; s < Slots; s++ {
			if v := binary.LittleEndian.Uint64(values[8*s:]); v != 0 && v != zeroWord {
				fn(pmem.PAddr(v))
			}
		}
	})
}

// walk calls fn on every bucket of the chains of directory buckets
// [lo, hi), directory buckets and overflow buckets alike, with the
// bucket's eight value words. Like findSlot it reads a bucket through one
// view; the caller excludes writers.
func (m *Map) walk(lo, hi uint64, fn func(b pmem.PAddr, values []byte)) {
	for i := lo; i < hi; i++ {
		for b := m.bucketAddr(i); b != pmem.Null; {
			words := m.mem.Bytes(b, bOverflow+8)
			fn(b, words[bValues:bValues+8*Slots])
			b = pmem.PAddr(binary.LittleEndian.Uint64(words[bOverflow:]))
		}
	}
}
