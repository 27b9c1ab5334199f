package extent

import (
	"fmt"

	"nvalloc/internal/pmem"
)

// InPlace is the classic bookkeeping scheme the paper's baselines (and
// the "Base" ablation) use: every 4 MiB chunk begins with a header table
// of one 8-byte slot per page, updated in place on every large allocation
// and free. Because the best-fit extent can live anywhere in the heap,
// these header updates are exactly the small random persistent-memory
// writes Figure 2 profiles.
type InPlace struct {
	dev      pmem.Dev
	heapBase pmem.PAddr
	brkAddr  pmem.PAddr
}

// HeaderBytes is the per-chunk header-table reservation: 1024 pages per
// 4 MiB chunk, 8 bytes per slot, 8 KiB total (the first two pages).
const HeaderBytes = (ChunkSize / PageSize) * 8

// In-place slot encoding (8 B): bit 63 live, bit 62 slab, bits 0..31 size.
const (
	ipLive = 1 << 63
	ipSlab = 1 << 62
)

// NewInPlace creates the in-place bookkeeper for a heap whose chunks are
// carved from heapBase and whose break lives at brkAddr.
func NewInPlace(dev pmem.Dev, heapBase, brkAddr pmem.PAddr) *InPlace {
	return &InPlace{dev: dev, heapBase: heapBase, brkAddr: brkAddr}
}

// DataOffset reserves the header table at the start of every chunk.
func (b *InPlace) DataOffset() uint64 { return HeaderBytes }

func (b *InPlace) slot(addr pmem.PAddr) (pmem.PAddr, error) {
	if addr < b.heapBase {
		return 0, fmt.Errorf("inplace: address %#x below heap", addr)
	}
	off := uint64(addr - b.heapBase)
	chunk := off / ChunkSize
	page := (off % ChunkSize) / PageSize
	if page < HeaderBytes/PageSize {
		return 0, fmt.Errorf("inplace: address %#x inside a header table", addr)
	}
	return b.heapBase + pmem.PAddr(chunk*ChunkSize+page*8), nil
}

// RecordAlloc writes the extent's header slot in place (one random
// persistent write).
func (b *InPlace) RecordAlloc(c *pmem.Ctx, addr pmem.PAddr, size uint64, slab bool) error {
	s, err := b.slot(addr)
	if err != nil {
		return err
	}
	v := uint64(ipLive) | size
	if slab {
		v |= ipSlab
	}
	c.PersistU64(pmem.CatMeta, s, v)
	c.Fence()
	return nil
}

// RecordFree clears each extent's header slot in place, with one
// trailing fence for the group. Slots are flushed individually, so a
// crash mid-group persists an independently valid prefix.
func (b *InPlace) RecordFree(c *pmem.Ctx, addrs []pmem.PAddr) (n int, err error) {
	for _, addr := range addrs {
		var s pmem.PAddr
		if s, err = b.slot(addr); err != nil {
			break
		}
		c.PersistU64(pmem.CatMeta, s, 0)
		n++
	}
	if n > 0 {
		c.Fence()
	}
	return n, err
}

// SelfLocked reports false: the pool serializes in-place header updates
// through its own book resource.
func (b *InPlace) SelfLocked() bool { return false }

// end returns the end of the last whole chunk on the device: every header
// table lies below it.
func (b *InPlace) end() pmem.PAddr {
	end := pmem.PAddr(b.dev.Size())
	if end < b.heapBase {
		end = b.heapBase
	}
	return end - (end-b.heapBase)%ChunkSize
}

// Clear zeroes every header table Recover reads, flushed and fenced. A
// heap formatted where another heap was calls it before it writes its
// superblock: Recover scans past the break, so a table the old heap left
// would otherwise come back as live records after the new heap's first
// crash.
func (b *InPlace) Clear(c *pmem.Ctx) {
	for chunk := b.heapBase; chunk < b.end(); chunk += ChunkSize {
		b.dev.Zero(chunk, HeaderBytes)
		c.Flush(pmem.CatMeta, chunk, HeaderBytes)
	}
	c.Fence()
}

// Recover scans every chunk header table in the heap region and returns
// the live extents. The scan deliberately ignores the stored break: a
// torn or flipped break word must neither walk the scan out of bounds
// nor hide live chunks beyond a corrupted (shrunken) value. Chunks that
// were never grown read as all-zero header tables (a format over an older
// heap clears them: Clear) and contribute nothing; Rebuild re-validates
// and heals the stored break afterwards.
func (b *InPlace) Recover(c *pmem.Ctx) []LiveRecord {
	brk := b.end()
	var out []LiveRecord
	for chunk := b.heapBase; chunk < brk; chunk += ChunkSize {
		for page := HeaderBytes / PageSize; page < ChunkSize/PageSize; page++ {
			raw := b.dev.ReadU64(chunk + pmem.PAddr(page*8))
			c.Charge(pmem.CatSearch, 2)
			if raw&ipLive == 0 {
				continue
			}
			out = append(out, LiveRecord{
				Addr: chunk + pmem.PAddr(page*PageSize),
				Size: raw &^ (ipLive | ipSlab),
				Slab: raw&ipSlab != 0,
			})
		}
	}
	return out
}
