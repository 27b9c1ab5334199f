package blog

import (
	"cmp"
	"slices"

	"nvalloc/internal/pmem"
)

// validChunkAddr reports whether a names a chunk-aligned slot inside the
// log region's chunk area.
func (l *Log) validChunkAddr(a pmem.PAddr) bool {
	if a < l.base+headerSize || uint64(a)+ChunkSize > uint64(l.base)+l.size {
		return false
	}
	return (uint64(a)-uint64(l.base)-headerSize)%ChunkSize == 0
}

// Open reads the log back after a restart or crash. It walks the active
// chunk chain, replays normal and tombstone entries in activation order,
// rebuilds the volatile vchunks/index/free structures, and returns the
// records of every live extent in address order. Recovery work and the
// repairs it makes are charged to a context of the log's own.
//
// Every pointer followed is validated before it is dereferenced (sealed
// head/alt words, chunk alignment and range, header magic and checksum),
// so a corrupted image yields a CorruptError instead of a panic or a
// silently truncated chain. The region break self-heals: it is raised to
// cover every chunk the chain reaches and persisted back if the stored
// value is torn or stale.
func Open(dev pmem.Dev, base pmem.PAddr, size uint64, stripes int) (*Log, []Record, error) {
	c := dev.NewCtx()
	defer c.Merge()
	l := New(dev.Mem(), base, size, stripes)

	alt, ok := pmem.UnsealU64(dev.ReadU64(base + offAlt))
	if !ok {
		return nil, nil, pmem.Corrupt("blog", base+offAlt, "alt word fails seal check")
	}
	l.alt = alt & 1

	type chunkInfo struct {
		addr   pmem.PAddr
		seq    uint64
		active bool
	}
	var chain []chunkInfo
	headRaw, ok := pmem.UnsealU64(dev.ReadU64(l.headPtrOff()))
	if !ok {
		return nil, nil, pmem.Corrupt("blog", l.headPtrOff(), "head pointer fails seal check")
	}
	head := pmem.PAddr(headRaw)
	if head != pmem.Null && !l.validChunkAddr(head) {
		return nil, nil, pmem.Corrupt("blog", l.headPtrOff(), "head pointer %#x outside chunk area", head)
	}
	seen := make(map[pmem.PAddr]bool)
	maxEnd := uint64(base) + headerSize
	for a := head; a != pmem.Null; {
		if seen[a] {
			return nil, nil, pmem.Corrupt("blog", a, "chunk chain contains a cycle")
		}
		seen[a] = true
		if m := dev.ReadU32(a + coMagic); m != chunkMagic {
			return nil, nil, pmem.Corrupt("blog", a, "bad chunk magic %#x", m)
		}
		seq := dev.ReadU64(a + coSeq)
		if got, want := dev.ReadU32(a+coCRC), chunkCRC(seq); got != want {
			// A crash mid-reactivation can leave a fresh seq with the old
			// checksum — but only after the entry wipe persisted. An empty
			// chunk is therefore acceptable; repair its checksum in place.
			// Anything else is corruption.
			for _, b := range dev.Bytes(a+chunkHdrSize, ChunkSize-chunkHdrSize) {
				if b != 0 {
					return nil, nil, pmem.Corrupt("blog", a, "chunk checksum %#x, want %#x", got, want)
				}
			}
			dev.WriteU32(a+coCRC, want)
			c.Flush(pmem.CatMeta, a, chunkHdrSize)
			c.Fence()
		}
		chain = append(chain, chunkInfo{
			addr:   a,
			seq:    seq,
			active: dev.ReadU32(a+coActive) == 1,
		})
		if end := uint64(a) + ChunkSize; end > maxEnd {
			maxEnd = end
		}
		c.Charge(pmem.CatSearch, 20)
		next := pmem.PAddr(dev.ReadU64(a + coNext))
		if next != pmem.Null && !l.validChunkAddr(next) {
			return nil, nil, pmem.Corrupt("blog", a+coNext, "next pointer %#x outside chunk area", next)
		}
		a = next
	}

	// Self-heal the region break: a legitimate crash leaves it aligned and
	// covering the whole chain; anything else (a flipped word) is clamped
	// back to the smallest consistent value and persisted.
	brk := dev.ReadU64(base + offBreak)
	brkBad := brk < uint64(base)+headerSize || brk > uint64(base)+size ||
		(brk-uint64(base)-headerSize)%ChunkSize != 0 || brk < maxEnd
	if brkBad {
		c.PersistU64(pmem.CatMeta, base+offBreak, maxEnd)
		c.Fence()
	}

	// Replay entries in global activation order.
	ordered := make([]chunkInfo, 0, len(chain))
	for _, ci := range chain {
		if ci.active {
			ordered = append(ordered, ci)
		} else {
			l.dormant = append(l.dormant, ci.addr)
		}
	}
	slices.SortFunc(ordered, func(a, b chunkInfo) int { return cmp.Compare(a.seq, b.seq) })

	type liveRef struct {
		ref entryRef
		rec Record
	}
	livemap := make(map[pmem.PAddr]liveRef)
	var maxSeq uint64
	for _, ci := range ordered {
		if ci.seq > maxSeq {
			maxSeq = ci.seq
		}
		v := &vchunk{addr: ci.addr}
		l.chunks.Put(ci.addr, v)
		for slot := 0; slot < l.perChunk; slot++ {
			raw := dev.ReadU64(l.entryAddr(ci.addr, slot))
			c.Charge(pmem.CatSearch, 2)
			if raw == 0 {
				continue
			}
			addr, sz, t := decode(raw)
			switch t {
			case TypeExtent, TypeSlab:
				// A later normal entry for the same address supersedes an
				// earlier one (free+realloc at the same address whose
				// tombstone chunk was already retired).
				if prev, ok := livemap[addr]; ok {
					if pv, ok := l.chunks.Get(prev.ref.chunk); ok {
						pv.clear(prev.ref.slot)
					}
				}
				v.set(slot)
				livemap[addr] = liveRef{
					ref: entryRef{chunk: ci.addr, slot: slot},
					rec: Record{Addr: addr, Size: sz, Slab: t == TypeSlab},
				}
			case TypeTombstone:
				// Tombstones keep their vbit (they die at slow GC), and
				// kill the live record for their address if present.
				v.set(slot)
				if prev, ok := livemap[addr]; ok {
					if pv, ok := l.chunks.Get(prev.ref.chunk); ok {
						pv.clear(prev.ref.slot)
					}
					delete(livemap, addr)
				}
			}
		}
	}
	l.nextSeq = maxSeq + 1

	// Resume appending in the chain tail if it is active and has room.
	// The cursor resumes after the *last* occupied slot, not the first
	// empty one: a scavenge (DropRecord) can zero interior entries, and
	// resuming inside such a hole would overwrite later live entries.
	if n := len(chain); n > 0 {
		l.tail = chain[n-1].addr
		if v, ok := l.chunks.Get(l.tail); ok {
			cur := l.perChunk
			for cur > 0 && dev.ReadU64(l.entryAddr(l.tail, cur-1)) == 0 {
				cur--
			}
			if cur < l.perChunk {
				l.current = v
				l.cursor = cur
			}
		}
	}

	// Queue any fully dead chunks for fast GC.
	l.chunks.Ascend(func(_ pmem.PAddr, v *vchunk) bool {
		l.noteEmpty(v)
		return true
	})

	records := make([]Record, 0, len(livemap))
	for addr, lr := range livemap {
		l.index[addr] = lr.ref
		records = append(records, lr.rec)
	}
	slices.SortFunc(records, func(a, b Record) int { return cmp.Compare(a.Addr, b.Addr) })
	return l, records, nil
}
