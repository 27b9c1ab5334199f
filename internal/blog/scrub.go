package blog

import (
	"fmt"

	"nvalloc/internal/pmem"
)

// Scrub repairs a damaged log region in place so a subsequent Open
// succeeds: an unsealable alt or head word empties the log, the chunk
// chain is truncated before the first corrupt chunk, and an empty chunk
// with a stale checksum is repaired in place (mirroring Open's
// mid-reactivation tolerance). Entries in dropped chunks are lost —
// scavenging trades tail records for a mountable heap. It returns a
// description of every repair made (empty when nothing was wrong).
func Scrub(dev pmem.Dev, base pmem.PAddr, size uint64, stripes int) []string {
	l := New(dev.Mem(), base, size, stripes)
	c := dev.NewCtx()
	defer c.Merge()
	var done []string

	alt, ok := pmem.UnsealU64(dev.ReadU64(base + offAlt))
	if !ok {
		c.PersistU64(pmem.CatMeta, base+offAlt, pmem.SealU64(0))
		c.Fence()
		alt = 0
		done = append(done, "reset unsealable alt word")
	}
	l.alt = alt & 1

	truncate := func(prev pmem.PAddr, why string) {
		if prev == pmem.Null {
			c.PersistU64(pmem.CatMeta, l.headPtrOff(), pmem.SealU64(0))
		} else {
			c.PersistU64(pmem.CatMeta, prev+coNext, 0)
		}
		c.Fence()
		done = append(done, why)
	}

	headRaw, ok := pmem.UnsealU64(dev.ReadU64(l.headPtrOff()))
	if !ok {
		truncate(pmem.Null, "reset unsealable head pointer (log emptied)")
		return done
	}
	head := pmem.PAddr(headRaw)
	if head != pmem.Null && !l.validChunkAddr(head) {
		truncate(pmem.Null, fmt.Sprintf("cleared out-of-range head pointer %#x (log emptied)", head))
		return done
	}
	seen := make(map[pmem.PAddr]bool)
	prev := pmem.Null
	for a := head; a != pmem.Null; {
		if seen[a] {
			truncate(prev, fmt.Sprintf("broke chunk-chain cycle at %#x", a))
			break
		}
		seen[a] = true
		if m := dev.ReadU32(a + coMagic); m != chunkMagic {
			truncate(prev, fmt.Sprintf("truncated chain at chunk %#x (bad magic %#x)", a, m))
			break
		}
		seq := dev.ReadU64(a + coSeq)
		if got, want := dev.ReadU32(a+coCRC), chunkCRC(seq); got != want {
			empty := true
			for _, b := range dev.Bytes(a+chunkHdrSize, ChunkSize-chunkHdrSize) {
				if b != 0 {
					empty = false
					break
				}
			}
			if !empty {
				truncate(prev, fmt.Sprintf("truncated chain at chunk %#x (checksum %#x, want %#x)", a, got, want))
				break
			}
			dev.WriteU32(a+coCRC, want)
			c.Flush(pmem.CatMeta, a, chunkHdrSize)
			c.Fence()
			done = append(done, fmt.Sprintf("repaired checksum of empty chunk %#x", a))
		}
		next := pmem.PAddr(dev.ReadU64(a + coNext))
		if next != pmem.Null && !l.validChunkAddr(next) {
			c.PersistU64(pmem.CatMeta, a+coNext, 0)
			c.Fence()
			done = append(done, fmt.Sprintf("cleared out-of-range next pointer %#x of chunk %#x", next, a))
			break
		}
		prev, a = a, next
	}
	return done
}

// DropRecord zeroes every normal entry for addr in the log's chunk chain —
// the scavenger's tool for discarding a live-extent record that failed
// extent-level validation (misaligned, overlapping, out of range).
// Returns how many entries were cleared. The chain must already be
// structurally sound (run Scrub first); a damaged chain stops the walk
// early rather than erroring.
func DropRecord(dev pmem.Dev, base pmem.PAddr, size uint64, stripes int, addr pmem.PAddr) int {
	l := New(dev.Mem(), base, size, stripes)
	c := dev.NewCtx()
	defer c.Merge()
	alt, ok := pmem.UnsealU64(dev.ReadU64(base + offAlt))
	if !ok {
		return 0
	}
	l.alt = alt & 1
	headRaw, ok := pmem.UnsealU64(dev.ReadU64(l.headPtrOff()))
	if !ok {
		return 0
	}
	dropped := 0
	seen := make(map[pmem.PAddr]bool)
	for a := pmem.PAddr(headRaw); a != pmem.Null && !seen[a] && l.validChunkAddr(a); {
		seen[a] = true
		for slot := 0; slot < l.perChunk; slot++ {
			ea := l.entryAddr(a, slot)
			raw := dev.ReadU64(ea)
			if raw == 0 {
				continue
			}
			if ra, _, t := decode(raw); ra == addr && (t == TypeExtent || t == TypeSlab) {
				c.PersistU64(pmem.CatMeta, ea, 0)
				dropped++
			}
		}
		a = pmem.PAddr(dev.ReadU64(a + coNext))
	}
	if dropped > 0 {
		c.Fence()
	}
	return dropped
}
