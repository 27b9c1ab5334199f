package core

import (
	"errors"
	"fmt"
	"strings"

	"nvalloc/internal/alloc"
	"nvalloc/internal/blog"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// maxScavengeRounds bounds the repair loop. Every successful round
// removes at least one corrupt structure from the open path, so the
// bound is only hit by images whose damage repairs cannot converge on.
const maxScavengeRounds = 32

// Check opens a clone of the device and reports everything wrong with
// the image without modifying it. An empty result means the image opens
// cleanly. When the image is damaged, the first entry is the error Open
// hit and the rest describe what a Scavenge run would do about it.
// Cloning is a simulation feature, so Check takes the concrete device.
func Check(dev *pmem.Device, opts Options) []string {
	clone := dev.Clone()
	if _, _, err := Open(clone, opts); err == nil {
		return nil
	}
	_, issues, err := Scavenge(dev.Clone(), opts)
	if err != nil {
		issues = append(issues, "unrepairable: "+err.Error())
	}
	return issues
}

// Scavenge repeatedly opens the heap, repairing each detected corruption
// in place, until the image opens cleanly or a corruption has no repair.
// Repairs are conservative — damaged structures are quarantined, reset
// or truncated (leaking or dropping their contents), never guessed at —
// and dangling root slots are scrubbed after a successful open. On
// success it returns the opened heap and a description of every repair.
func Scavenge(dev pmem.Dev, opts Options) (*Heap, []string, error) {
	var repairs []string
	walReset := false
	for round := 0; round < maxScavengeRounds; round++ {
		h, _, err := Open(dev, opts)
		if err == nil {
			if walReset && h.useWAL {
				repairs = append(repairs, h.pinFreeBlocks())
			}
			repairs = append(repairs, h.scrubRoots()...)
			return h, repairs, nil
		}
		var ce *pmem.CorruptError
		if !errors.As(err, &ce) {
			return nil, repairs, err
		}
		did, ok := repairOne(dev, ce)
		if !ok {
			return nil, repairs, err
		}
		walReset = walReset || ce.Region == "wal"
		repairs = append(repairs, fmt.Sprintf("%s — %s", err, did))
	}
	return nil, repairs, fmt.Errorf("core: scavenge did not converge after %d rounds", maxScavengeRounds)
}

// repairOne applies the conservative repair for one CorruptError. The
// superblock must already validate for every region except "superblock"
// itself (Open fails there first), so superblock field reads below are
// safe. Returns what was done and whether a repair was possible.
func repairOne(dev pmem.Dev, ce *pmem.CorruptError) (string, bool) {
	switch ce.Region {
	case "superblock":
		switch ce.Addr {
		case superBase + sbState:
			dev.WriteU64(superBase+sbState, pmem.SealU64(stateRunning))
			return "resealed run state as running (forces crash recovery)", true
		case superBase + sbChecksum:
			// A flipped field would now pass the checksum but still hits
			// the range and layout validation on the next open.
			dev.WriteU64(superBase+sbChecksum, uint64(superCRC(dev)))
			return "recomputed superblock checksum", true
		}
		return "", false

	case "wal":
		// Reset the damaged ring. Its entries are lost. In GC and IC the
		// ring is unused; in LOG it was the only record of the bitmap bits
		// written since its checkpoint, which Scavenge answers by pinning
		// (pinFreeBlocks) once the heap opens.
		walBase := dev.ReadU64(superBase + sbWALBase)
		ents := int(dev.ReadU64(superBase + sbWALEnts))
		stripes := int(dev.ReadU64(superBase + sbStripes))
		arenas := dev.ReadU64(superBase + sbArenas)
		region := uint64(walog.RegionSize(ents, stripes))
		if uint64(ce.Addr) < walBase || uint64(ce.Addr) >= walBase+arenas*region {
			return "", false
		}
		ring := (uint64(ce.Addr) - walBase) / region
		dev.Zero(pmem.PAddr(walBase+ring*region), int(region))
		return fmt.Sprintf("reset WAL ring %d", ring), true

	case "blog":
		base := pmem.PAddr(dev.ReadU64(superBase + sbBlogBase))
		size := dev.ReadU64(superBase + sbBlogSize)
		stripes := int(dev.ReadU64(superBase + sbWALStripes))
		if done := blog.Scrub(dev, base, size, stripes); len(done) > 0 {
			return strings.Join(done, "; "), true
		}
		return "", false

	case "slab":
		base := ce.Addr &^ (slab.Size - 1)
		heapBase := dev.ReadU64(superBase + sbHeapBase)
		if uint64(base) < heapBase || uint64(base)+slab.Size > dev.Size() {
			return "", false
		}
		c := dev.NewCtx()
		slab.Quarantine(dev.Mem(), c, base, 1)
		c.Merge()
		return fmt.Sprintf("quarantined slab %#x as fully allocated", base), true

	case "extent":
		// A live-extent record failed validation; drop the record. The
		// bytes it covered leak into the free pool (or stay leaked), but
		// every other record becomes recoverable again.
		if dev.ReadU64(superBase+sbBookMode) == 1 {
			base := pmem.PAddr(dev.ReadU64(superBase + sbBlogBase))
			size := dev.ReadU64(superBase + sbBlogSize)
			stripes := int(dev.ReadU64(superBase + sbWALStripes))
			if n := blog.DropRecord(dev, base, size, stripes, ce.Addr); n > 0 {
				return fmt.Sprintf("dropped %d bookkeeping-log record(s) for %#x", n, ce.Addr), true
			}
			return "", false
		}
		heapBase := dev.ReadU64(superBase + sbHeapBase)
		if uint64(ce.Addr) < heapBase {
			return "", false
		}
		off := uint64(ce.Addr) - heapBase
		slotAddr := heapBase + off/extent.ChunkSize*extent.ChunkSize + off%extent.ChunkSize/extent.PageSize*8
		if slotAddr+8 > dev.Size() {
			return "", false
		}
		dev.WriteU64(pmem.PAddr(slotAddr), 0)
		return fmt.Sprintf("cleared in-place header record for %#x", ce.Addr), true
	}
	return "", false
}

// pinFreeBlocks marks every free small block allocated, on media. A LOG
// heap leaves bitmap bits in the cache image under the cover of its WAL
// rings, so once a ring has been reset a block that reads free may be a
// live block whose entry was lost — and a lost entry can name any slab
// (ownership is volatile), so nothing that reads free can be vouched for.
// Surviving entries are not applied first: every bit they could set is
// set here, and every bit they could clear would be pinned again. The
// blocks leak; no live block is handed out a second time. Runs on a
// freshly opened heap, before any thread exists.
func (h *Heap) pinFreeBlocks() string {
	c := h.dev.NewCtx()
	defer c.Merge()
	pinned := 0
	h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
		before := pinned
		s.Build(c)
		for idx := 0; idx < s.Blocks; idx++ {
			if !s.BlockAllocated(idx) {
				s.AllocBlock(c, idx, false)
				pinned++
			}
		}
		if pinned > before {
			s.SyncBitmap(c)
		}
		if a := h.arenas[s.Owner]; a.onFreelist(s) {
			a.freelistRemove(s)
		}
		return true
	})
	return fmt.Sprintf("pinned %d free small blocks as allocated (a reset WAL ring may have covered them)", pinned)
}

// scrubRoots clears root-pointer slots that do not reference a live
// object after recovery — a flipped root word would otherwise hand the
// application a dangling pointer the first time it follows it.
func (h *Heap) scrubRoots() []string {
	var out []string
	c := h.dev.NewCtx()
	defer c.Merge()
	for i := 0; i < alloc.NumRootSlots; i++ {
		slot := h.RootSlot(i)
		p := pmem.PAddr(h.dev.ReadU64(slot))
		if p == pmem.Null || h.resolvesLive(c, p) {
			continue
		}
		c.PersistU64(pmem.CatMeta, slot, 0)
		c.Fence()
		out = append(out, fmt.Sprintf("cleared root slot %d (dangling pointer %#x)", i, p))
	}
	return out
}

// resolvesLive reports whether p is the start address of a live slab
// block (current or old class) or large extent. A slab it reads is built
// on c.
func (h *Heap) resolvesLive(c *pmem.Ctx, p pmem.PAddr) bool {
	if p < h.heapBase || uint64(p) >= h.dev.Size() || p%8 != 0 {
		return false
	}
	base := p &^ (slab.Size - 1)
	if s := h.slabs.Lookup(base); s != nil {
		h.lockSlabState(s)
		defer h.unlockSlabState(s)
		if idx := s.BlockIndex(p); idx >= 0 {
			s.Build(c)
			return s.BlockAllocated(idx)
		}
		return s.OldBlockIndex(p) >= 0
	}
	_, ok := h.large.Live(p)
	return ok
}
