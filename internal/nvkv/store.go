package nvkv

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync/atomic"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
)

// The persistent layout. Each key-value pair is one allocator-backed
// record blob, reached through the phash index: the index entry holds
// (hash64(key bytes), record PAddr) inline — the record is the only
// allocation a pair costs — and the record carries the full key so hits
// are verified byte-for-byte (a 64-bit digest collision is detected,
// never silently conflated).
//
// Record blob (16 + klen + vlen + 4 bytes, an alloc.Thread reservation):
//
//	[0,8)              header: magic(16) | klen(16) | vlen(32)
//	[8,16)             expiry, absolute ns (0 = no expiry)
//	[16,16+klen)       key bytes
//	[16+klen,...+vlen) value bytes
//	last 4             CRC32 (IEEE) of key||value
//
// Consistency: every mutation is one reserve → fill → publish group. Set
// reserves the record (nothing persistent happens), writes and flushes it,
// and hands it to phash.Cursor.Publish, which runs alloc.Thread.Publish on
// the index entry's value word: one WAL entry names that word, the new
// record and the record it supersedes; one fence makes the entry, the
// record and the index key durable; one 8-byte persist of the value word
// commits. Del publishes Null over the record the same way. After a crash
// at any point the index entry, the new record's allocation and the old
// record's release have all happened or none has, so a record is always
// either reachable from the index or free: nothing leaks, and a
// Heap.Objects walk finds exactly the index and the records it references
// (DESIGN.md §10 states the two exceptions a multi-arena server has).
const (
	recHeader = 0
	recExpiry = 8
	recKey    = 16

	recMagic = 0x4B56 // "KV"

	// MaxKeyLen bounds keys; the wire protocol's MaxBulk bounds values.
	MaxKeyLen = 4 << 10
)

// Store errors.
var (
	// ErrKeyTooLarge is returned for keys above MaxKeyLen or empty keys.
	ErrKeyTooLarge = errors.New("nvkv: key empty or exceeds MaxKeyLen")
	// ErrValueTooLarge is returned for values above MaxBulk.
	ErrValueTooLarge = errors.New("nvkv: value exceeds maximum size")
	// ErrHashCollision is returned when a Set would land on a different
	// key with the same 64-bit digest. The store refuses to clobber it.
	ErrHashCollision = errors.New("nvkv: 64-bit key digest collision")
	// ErrRecordCorrupt wraps every record integrity failure (bad magic,
	// bad CRC, out-of-range geometry).
	ErrRecordCorrupt = errors.New("nvkv: record corrupt")
)

// Store is the persistent KV engine: a phash directory of record blobs
// on an NVAlloc heap. It is safe for concurrent use; every operation on a
// key holds one phash.Cursor — the key's index stripe and the slot the one
// probe found — around its whole lookup/reserve/publish sequence.
type Store struct {
	heap alloc.Heap
	dev  pmem.Dev
	idx  *phash.Map

	// Volatile counters (rebuilt or re-zeroed on open).
	liveKeys   atomic.Int64
	gets       atomic.Uint64
	hits       atomic.Uint64
	sets       atomic.Uint64
	dels       atomic.Uint64
	expires    atomic.Uint64
	collisions atomic.Uint64
}

// StoreConfig parameterizes CreateStore.
type StoreConfig struct {
	// Buckets sizes the phash directory (default 1<<15).
	Buckets int
}

// CreateStore formats a fresh store whose index header persists in the
// heap's rootSlot.
func CreateStore(h alloc.Heap, th alloc.Thread, rootSlot int, cfg StoreConfig) (*Store, error) {
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = 1 << 15
	}
	idx, err := phash.Create(h, th, rootSlot, buckets, 0)
	if err != nil {
		return nil, err
	}
	return &Store{heap: h, dev: h.Device(), idx: idx}, nil
}

// OpenStore attaches to an existing store after a restart or crash
// recovery; the directory's size is read from the heap, so cfg is not
// consulted. The live-key counter is rebuilt by walking the directory, a
// range of buckets per GOMAXPROCS worker.
func OpenStore(h alloc.Heap, rootSlot int, cfg StoreConfig) (*Store, error) {
	idx, err := phash.Open(h, rootSlot)
	if err != nil {
		return nil, err
	}
	s := &Store{heap: h, dev: h.Device(), idx: idx}
	s.liveKeys.Store(int64(idx.Count(runtime.GOMAXPROCS(0))))
	return s, nil
}

// hashKey is FNV-1a 64 over the key bytes.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// recMeta is a record's decoded, sanity-checked header.
type recMeta struct {
	klen, vlen uint64
	expiry     int64
}

// expired reports whether the record is past its expiry at now.
func (m recMeta) expired(now int64) bool { return m.expiry != 0 && m.expiry <= now }

// readRecordMeta loads and sanity-checks a record header.
func (s *Store) readRecordMeta(rec pmem.PAddr) (recMeta, error) {
	hdr := s.dev.ReadU64(rec + recHeader)
	if hdr>>48 != recMagic {
		return recMeta{}, fmt.Errorf("%w: bad magic %#x at %#x", ErrRecordCorrupt, hdr>>48, rec)
	}
	m := recMeta{klen: (hdr >> 32) & 0xFFFF, vlen: hdr & 0xFFFFFFFF}
	if m.klen == 0 || m.klen > MaxKeyLen || m.vlen > MaxBulk {
		return recMeta{}, fmt.Errorf("%w: geometry klen=%d vlen=%d at %#x", ErrRecordCorrupt, m.klen, m.vlen, rec)
	}
	m.expiry = int64(s.dev.ReadU64(rec + recExpiry))
	return m, nil
}

// lookup resolves key, whose digest cur has located, to its record and the
// header it decoded on the way, verifying the stored key bytes.
// found=false with rec!=Null never happens; a digest collision reports
// collision=true.
func (s *Store) lookup(cur *phash.Cursor, key []byte) (rec pmem.PAddr, m recMeta, found, collision bool, err error) {
	v, ok := cur.Value()
	if !ok {
		return pmem.Null, recMeta{}, false, false, nil
	}
	rec = pmem.PAddr(v)
	m, err = s.readRecordMeta(rec)
	if err != nil {
		return pmem.Null, recMeta{}, false, false, err
	}
	if m.klen != uint64(len(key)) || string(s.dev.Bytes(rec+recKey, int(m.klen))) != string(key) {
		s.collisions.Add(1)
		return pmem.Null, recMeta{}, false, true, nil
	}
	return rec, m, true, false, nil
}

// writeRecord reserves a record blob, writes it and flushes it. It does
// not fence: the first fence of the publish that makes the record
// reachable covers these flushes. Until then the reservation has no
// persistent existence, and an error path returns it with Unreserve.
func (s *Store) writeRecord(th alloc.Thread, key, val []byte, expiry int64) (pmem.PAddr, error) {
	n := uint64(recKey) + uint64(len(key)) + uint64(len(val)) + 4
	rec, err := th.Reserve(n)
	if err != nil {
		return pmem.Null, err
	}
	hdr := uint64(recMagic)<<48 | uint64(len(key))<<32 | uint64(len(val))
	s.dev.WriteU64(rec+recHeader, hdr)
	s.dev.WriteU64(rec+recExpiry, uint64(expiry))
	s.dev.Write(rec+recKey, key)
	s.dev.Write(rec+recKey+pmem.PAddr(len(key)), val)
	crc := crc32.ChecksumIEEE(key)
	crc = crc32.Update(crc, crc32.IEEETable, val)
	s.dev.WriteU32(rec+pmem.PAddr(n-4), crc)
	th.Ctx().Flush(pmem.CatOther, rec, int(n))
	return rec, nil
}

// expiryAt computes now+ttl (both ns, ttl > 0), saturating at MaxInt64
// instead of wrapping negative: a TTL too large to represent means
// "effectively never expires", not "already expired".
func expiryAt(now, ttl int64) int64 {
	if now > math.MaxInt64-ttl {
		return math.MaxInt64
	}
	return now + ttl
}

// Set inserts or replaces key with val. A ttl of 0 stores without
// expiry; ttl > 0 expires the key at now+ttl (both in ns). The reply
// contract: when Set returns nil the pair is durable, and the record it
// replaced is free; when it returns an error nothing changed, in the heap
// or in the index.
func (s *Store) Set(th alloc.Thread, now int64, key, val []byte, ttl int64) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return ErrKeyTooLarge
	}
	if len(val) > MaxBulk {
		return ErrValueTooLarge
	}
	var expiry int64
	if ttl > 0 {
		expiry = expiryAt(now, ttl)
	}
	cur := s.idx.Find(th, hashKey(key))
	defer cur.Release()
	old, _, found, collision, err := s.lookup(&cur, key)
	if err != nil {
		return err
	}
	if collision {
		return ErrHashCollision
	}
	rec, err := s.writeRecord(th, key, val, expiry)
	if err != nil {
		return err
	}
	if err := cur.Publish(th, rec, old); err != nil {
		// The record never became reachable; the reservation goes back.
		return errors.Join(err, th.Unreserve(rec))
	}
	s.sets.Add(1)
	if !found {
		s.liveKeys.Add(1)
	}
	return nil
}

// Get returns the value stored under key in a fresh slice; see
// AppendGet.
func (s *Store) Get(th alloc.Thread, now int64, key []byte) ([]byte, bool, error) {
	return s.AppendGet(th, now, nil, key)
}

// AppendGet appends the value stored under key to dst and returns the
// extended slice, or dst unchanged and ok=false when the key is absent
// or expired at now. The record is CRC-checked where it lies in the
// mapped heap and its value copied out once, under the key's index stripe,
// so the caller owns the bytes it gets and may write them to a socket after
// the stripe is released. Expired records are left in place (lazy expiry): a
// later Set or Del reclaims them, keeping Get read-only.
func (s *Store) AppendGet(th alloc.Thread, now int64, dst, key []byte) ([]byte, bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return dst, false, ErrKeyTooLarge
	}
	cur := s.idx.Find(th, hashKey(key))
	defer cur.Release()
	s.gets.Add(1)
	rec, m, found, _, err := s.lookup(&cur, key)
	if err != nil || !found || m.expired(now) {
		return dst, false, err
	}
	body := s.dev.Bytes(rec+recKey, int(m.klen+m.vlen))
	if got := s.dev.ReadU32(rec + recKey + pmem.PAddr(m.klen+m.vlen)); got != crc32.ChecksumIEEE(body) {
		return dst, false, fmt.Errorf("%w: CRC mismatch at %#x", ErrRecordCorrupt, rec)
	}
	s.hits.Add(1)
	return append(dst, body[m.klen:]...), true, nil
}

// Del removes key, reporting whether it was present (expired keys count
// as present for deletion: their storage is reclaimed either way).
func (s *Store) Del(th alloc.Thread, key []byte) (bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false, ErrKeyTooLarge
	}
	cur := s.idx.Find(th, hashKey(key))
	defer cur.Release()
	rec, _, found, _, err := s.lookup(&cur, key)
	if err != nil || !found {
		return false, err
	}
	return true, s.delRecord(th, &cur, rec)
}

// delRecord unpublishes and frees the record lookup found under cur, as
// one publish of Null over it: a nil return is a durable delete with the
// record free.
func (s *Store) delRecord(th alloc.Thread, cur *phash.Cursor, rec pmem.PAddr) error {
	if err := cur.Publish(th, pmem.Null, rec); err != nil {
		return err
	}
	s.dels.Add(1)
	s.liveKeys.Add(-1)
	return nil
}

// Expire re-arms key's expiry to now+ttl. A ttl <= 0 deletes the key
// immediately (the redis convention). It reports whether the key was
// present and unexpired.
func (s *Store) Expire(th alloc.Thread, now int64, key []byte, ttl int64) (bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false, ErrKeyTooLarge
	}
	cur := s.idx.Find(th, hashKey(key))
	defer cur.Release()
	rec, m, found, _, err := s.lookup(&cur, key)
	if err != nil || !found || m.expired(now) {
		return false, err
	}
	if ttl <= 0 {
		return true, s.delRecord(th, &cur, rec)
	}
	c := th.Ctx()
	// An 8-byte atomic persist: the expiry flips in one commit.
	c.PersistU64(pmem.CatOther, rec+recExpiry, uint64(expiryAt(now, ttl)))
	c.Fence()
	s.expires.Add(1)
	return true, nil
}

// Len returns the live key count (including not-yet-reclaimed expired
// keys), maintained volatilely and rebuilt on open.
func (s *Store) Len() int64 { return s.liveKeys.Load() }

// StatsText renders the operational counters and heap accounting as the
// STATS reply body. An NVAlloc heap adds its large allocator's free space
// by what backs it (core.Heap.FreeBytes) and its metadata in service
// against what its regions reserve (core.Metadata).
func (s *Store) StatsText() string {
	var lease uint64
	if lo, ok := s.heap.(interface{ LeaseOverhead() uint64 }); ok {
		lease = lo.LeaseOverhead()
	}
	text := fmt.Sprintf(
		"keys:%d\nused_bytes:%d\npeak_bytes:%d\nlease_overhead_bytes:%d\n"+
			"sets:%d\ngets:%d\nhits:%d\ndels:%d\nexpires:%d\ncollisions:%d\n",
		s.liveKeys.Load(), s.heap.Used(), s.heap.Peak(), lease,
		s.sets.Load(), s.gets.Load(), s.hits.Load(), s.dels.Load(),
		s.expires.Load(), s.collisions.Load())
	if fh, ok := s.heap.(interface{ FreeBytes() (uint64, uint64) }); ok {
		dirty, retained := fh.FreeBytes()
		text += fmt.Sprintf("free_dirty_bytes:%d\nfree_retained_bytes:%d\n", dirty, retained)
	}
	if mh, ok := s.heap.(interface{ Metadata() core.Metadata }); ok {
		m := mh.Metadata()
		text += fmt.Sprintf(
			"meta_bytes:%d\nmeta_reserved_bytes:%d\nmeta_superblock_bytes:%d\n"+
				"wal_rings_in_service:%d\nwal_rings:%d\nwal_ring_bytes:%d\nblog_bytes:%d\nblog_region_bytes:%d\n",
			m.InService(), m.Reserved(), m.Superblock,
			m.RingsInService, m.Rings, m.RingBytes, m.LogBytes, m.LogRegion)
	}
	return text
}

// References calls fn with the address of every heap block the store can
// reach: the index's own blocks and every record. Set, Del and Expire keep
// a record either reachable or free across a crash, so on a heap that holds
// nothing but the store these are exactly its allocated objects.
func (s *Store) References(fn func(addr pmem.PAddr)) { s.idx.References(fn) }

// Heap exposes the backing heap (STATS, snapshots, tests).
func (s *Store) Heap() alloc.Heap { return s.heap }
