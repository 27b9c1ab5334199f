// Package walog implements the per-arena write-ahead log used by the
// strongly consistent allocator variants. Entries are fixed-size 32 B
// records placed in the log region with the same interleaved mapping as
// slab bitmaps (Section 5.1 of the paper, applied to WALs), so that
// consecutive transactions flush different cache lines.
//
// Entry layout (32 B, little endian; addresses are 48-bit, so a publish
// entry can name a slot and two blocks):
//
//	[0,8)   Seq
//	[8,14)  Addr
//	[14,20) Aux
//	[20,26) Old
//	[26,28) Aux2
//	[28]    Op
//	[29,32) 24-bit checksum over everything before it
//
// The log is a ring. Every entry carries a monotonically increasing
// sequence number; a persisted checkpoint sequence bounds replay: entries
// with Seq <= checkpoint have fully persisted effects and are not read.
// Entry application must be idempotent (all users re-apply absolute
// states, not deltas).
//
// Corruption detection: the checkpoint word is sealed (pmem.SealU64) and
// every entry carries a 24-bit checksum over its payload fields, so a
// torn append or a flipped bit is detected at replay instead of being
// applied. A
// single invalid entry is tolerated only at the ring position the next
// append would have used — that is exactly the state a crash mid-append
// leaves, and the interrupted operation was never acknowledged, so the
// entry is dropped. Anything else is reported as corruption.
package walog

import (
	"encoding/binary"

	"nvalloc/internal/interleave"
	"nvalloc/internal/pmem"
)

// EntrySize is the on-PM footprint of one WAL entry.
const EntrySize = 32

// headerSize reserves the first cache line of the region for the log
// header (checkpoint sequence).
const headerSize = pmem.LineSize

// Op identifies what a WAL entry records.
type Op uint8

// WAL operation codes. They are written to media, so none may move; 3 and
// 4, once the baselines' two publish records, stay unused so that no
// older entry reads as another op.
const (
	OpNone     Op = 0
	OpAllocBit Op = 1 // small block allocated: set bitmap bit
	OpFreeBit  Op = 2 // small block freed: clear bitmap bit
	OpMorph    Op = 5 // slab morph step: Addr=slab, Aux=step
	OpRetire   Op = 6 // slab released: Addr=slab; voids this ring's earlier bit entries for it
	OpPublish  Op = 7 // slot commit: Addr=slot, Aux=new block, Old=superseded block (either may be 0), Aux2=their class tags
)

// AddrBits is the width of the three address fields of an entry. Append
// panics on a wider value: a heap lays its device out below 1<<AddrBits.
const AddrBits = 48

// Entry is one decoded WAL record.
type Entry struct {
	Seq  uint64
	Addr pmem.PAddr
	Aux  uint64
	Old  pmem.PAddr
	Aux2 uint16
	Op   Op
}

// pack lays e's fields after Seq out as three words, checksum excluded.
func (e *Entry) pack() (w1, w2, w3 uint64) {
	if (uint64(e.Addr)|e.Aux|uint64(e.Old))>>AddrBits != 0 {
		panic("walog: entry field wider than 48 bits")
	}
	w1 = uint64(e.Addr) | e.Aux<<48
	w2 = e.Aux>>16 | uint64(e.Old)<<32
	w3 = uint64(e.Old)>>32 | uint64(e.Aux2)<<16 | uint64(e.Op)<<32
	return
}

// unpack is pack's inverse; w3's checksum byte positions are ignored.
func (e *Entry) unpack(w1, w2, w3 uint64) {
	const mask = 1<<AddrBits - 1
	e.Addr = pmem.PAddr(w1 & mask)
	e.Aux = (w1>>48 | w2<<16) & mask
	e.Old = pmem.PAddr((w2>>32 | w3<<32) & mask)
	e.Aux2 = uint16(w3 >> 16)
	e.Op = Op(w3 >> 32)
}

// Log is a write-ahead log over a fixed PM region. It is not
// goroutine-safe; callers hold the owning arena's resource lock.
type Log struct {
	dev    pmem.Mem
	base   pmem.PAddr
	n      int
	seq    uint64 // next sequence number to assign
	ckpt   uint64 // last persisted checkpoint
	cursor int    // next slot to write

	// slots is every ring slot's byte offset from the first slot, the
	// ring geometry's shared interleave table: the interleaved offset
	// arithmetic is paid once per geometry instead of on every append.
	slots []int32

	// WriteBack, when set, is the first step of every checkpoint move. A
	// log whose entries are the only durable record of a metadata write
	// (NVAlloc-LOG leaves bitmap bits in the cache image) sets it to flush
	// — not fence — every such line, and reports whether it flushed any;
	// the checkpoint word moves only after that write-back is fenced, so
	// the checkpoint never passes an entry whose effect is not on media.
	WriteBack func(c *pmem.Ctx) (flushed bool)

	// OnInService, when set, is called by the append that puts the ring in
	// service: its first, sequence 1. A ring is in service from then on
	// (InService), so a heap can count its region as committed from that
	// append and not from format.
	OnInService func()
}

// RegionSize returns the PM bytes needed for a log of n entries.
func RegionSize(n, stripes int) int {
	return headerSize + interleave.New(n, EntrySize*8, stripes, pmem.LineSize).SizeBytes()
}

// entryCheck computes the 24-bit integrity checksum over an entry's
// payload words. It is a multiplicative mix rather than a table CRC: the
// simulated device tears at 8-byte-word granularity, so any stale or
// zeroed word changes the mix with ~2^-24 collision probability — the
// same detection strength a CRC24 gives against tears — at a fraction of
// the cost on a path every malloc and free runs through. Each round folds
// its high half down before the next multiply: a product only carries
// differences upwards, and the packed layout puts the low 16 bits of Aux —
// what differs between two entries that reuse a ring slot for the same
// slot word — in the top bits of a word, where without the fold they
// would reach just eight bits of the result.
func entryCheck(seq, w1, w2, w3 uint64) uint32 {
	x := seq
	x = (x ^ w1) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	x = (x ^ w2) * 0xBF58476D1CE4E5B9
	x ^= x >> 32
	x = (x ^ w3) * 0x94D049BB133111EB
	x ^= x >> 32
	return uint32(x) & 0xFFFFFF
}

// New creates (or reopens for appending after recovery) a WAL over the
// region at base. n is the entry capacity; stripes=1 disables
// interleaving (the paper's baseline layout). It fails if the checkpoint
// word does not unseal.
func New(dev pmem.Mem, base pmem.PAddr, n, stripes int) (*Log, error) {
	l := &Log{
		dev:   dev,
		base:  base,
		n:     n,
		slots: interleave.New(n, EntrySize*8, stripes, pmem.LineSize).Table().Byte,
	}
	ckpt, ok := pmem.UnsealU64(dev.ReadU64(base))
	if !ok {
		return nil, pmem.Corrupt("wal", base, "checkpoint word fails seal check")
	}
	l.ckpt = ckpt
	l.seq = l.ckpt + 1
	l.cursor = int(l.ckpt % uint64(n))
	return l, nil
}

func (l *Log) slotAddr(slot int) pmem.PAddr { return l.base + headerSize + pmem.PAddr(l.slots[slot]) }

// Append assigns the next sequence number to e, writes its interleaved
// slot and flushes it (attributed to CatWAL), and returns the sequence.
// It never fences: the operation that owns the crash-ordering argument
// closes the entry, and whatever metadata write it covers, with its own
// trailing fence. Until that fence the entry's durability is unordered
// with later flushes — safe because crash recovery accepts every order:
// a missing or torn entry means the operation was never acknowledged,
// and a persisted entry replays idempotently over whatever state the
// metadata reached. Callers that append several entries before fencing
// rely on each being flushed individually, so a crash persists a valid
// prefix plus at most the one torn slot Replay tolerates.
//
// The slot is encoded through one raw Bytes view rather than per-field
// typed writes: WAL lines are written and flushed only under the owning
// arena's resource, so the strict-mode line locks the typed accessors
// take have nothing to exclude here.
func (l *Log) Append(c *pmem.Ctx, e Entry) uint64 {
	e.Seq = l.seq
	l.seq++
	slot := l.cursor
	if l.cursor++; l.cursor == l.n {
		l.cursor = 0
	}

	// Before overwriting an old slot, make sure the checkpoint has moved
	// past it. Any entry that has rotated all the way around the ring
	// completed long ago; advancing the checkpoint costs one flush per
	// half-ring of appends.
	if e.Seq > uint64(l.n) && l.ckpt < e.Seq-uint64(l.n) {
		l.setCheckpoint(c, e.Seq-uint64(l.n/2))
	}

	if e.Seq == 1 && l.OnInService != nil {
		l.OnInService()
	}

	a := l.slotAddr(slot)
	buf := l.dev.Bytes(a, EntrySize)
	w1, w2, w3 := e.pack()
	binary.LittleEndian.PutUint64(buf[0:], e.Seq)
	binary.LittleEndian.PutUint64(buf[8:], w1)
	binary.LittleEndian.PutUint64(buf[16:], w2)
	binary.LittleEndian.PutUint64(buf[24:], w3|uint64(entryCheck(e.Seq, w1, w2, w3))<<40)
	// Slots are 32 B units packed two per cache line, so an entry never
	// crosses a line boundary: one single-line flush covers it.
	c.FlushU64(pmem.CatWAL, a)
	return e.Seq
}

// setCheckpoint persists the replay lower bound (sealed), after writing
// back whatever the retired entries were the only record of.
func (l *Log) setCheckpoint(c *pmem.Ctx, seq uint64) {
	if seq <= l.ckpt {
		return
	}
	if l.WriteBack != nil && l.WriteBack(c) {
		c.Fence()
	}
	l.ckpt = seq
	c.PersistU64(pmem.CatWAL, l.base, pmem.SealU64(seq))
	c.Fence()
}

// Checkpoint marks every entry appended so far as fully applied. Called at
// clean shutdown so recovery after a normal exit replays nothing.
func (l *Log) Checkpoint(c *pmem.Ctx) {
	if l.seq > 0 {
		l.setCheckpoint(c, l.seq-1)
	}
}

// SlotReadNS is the virtual time Replay charges (CatSearch) per slot it
// reads.
const SlotReadNS = 5

// slotState classifies what a ring slot holds.
type slotState uint8

const (
	slotEmpty   slotState = iota // all zero: never written
	slotInvalid                  // fails its checksum, or sits off its sequence's ring position
	slotValid
)

// read decodes ring slot slot and charges its read.
func (l *Log) read(c *pmem.Ctx, slot int) (Entry, slotState) {
	raw := l.dev.Bytes(l.slotAddr(slot), EntrySize)
	c.Charge(pmem.CatSearch, SlotReadNS)
	seq := binary.LittleEndian.Uint64(raw[0:])
	w1 := binary.LittleEndian.Uint64(raw[8:])
	w2 := binary.LittleEndian.Uint64(raw[16:])
	w3 := binary.LittleEndian.Uint64(raw[24:])
	if seq|w1|w2|w3 == 0 {
		return Entry{}, slotEmpty
	}
	crc := uint32(w3 >> 40)
	w3 &= 1<<40 - 1
	if entryCheck(seq, w1, w2, w3) != crc || seq == 0 || int((seq-1)%uint64(l.n)) != slot {
		return Entry{}, slotInvalid
	}
	e := Entry{Seq: seq}
	e.unpack(w1, w2, w3)
	return e, slotValid
}

// Replay returns the ring's live entries — those past the checkpoint — in
// sequence order, and leaves the log ready to append after the last of
// them. It reads the live window only: from slot ckpt mod capacity on,
// each slot must hold a valid entry with exactly the next sequence number,
// and the first that does not is where the next append would have landed.
// There a stale entry of an earlier lap or a never-written slot ends the
// log, and an entry ahead of the window is corruption. An invalid slot
// there is a torn in-flight append (its operation was never acknowledged)
// and is dropped — unless the slot after it is invalid too or holds an
// entry of the current lap, neither of which one torn append leaves.
//
// The rest of the ring is retired: recovery applies nothing from it, and
// every retired slot is rewritten whole before the ring reaches it again,
// so it is not read. A ring costs SlotReadNS × (live entries + 1), + 2 when
// the stop slot is torn.
func (l *Log) Replay(c *pmem.Ctx) ([]Entry, error) {
	ckpt, ok := pmem.UnsealU64(l.dev.ReadU64(l.base))
	if !ok {
		return nil, pmem.Corrupt("wal", l.base, "checkpoint word fails seal check")
	}
	var live []Entry
	next := ckpt + 1 // the sequence the scan expects
	for {
		slot := int((next - 1) % uint64(l.n))
		e, st := l.read(c, slot)
		if st == slotInvalid {
			after := (slot + 1) % l.n
			switch e2, st2 := l.read(c, after); {
			case st2 == slotInvalid:
				return nil, pmem.Corrupt("wal", l.slotAddr(after), "multiple invalid entries (slots %d and %d)", slot, after)
			case st2 == slotValid && e2.Seq > next:
				return nil, pmem.Corrupt("wal", l.slotAddr(slot),
					"invalid entry at slot %d, not the in-flight append slot: slot %d holds sequence %d", slot, after, e2.Seq)
			}
			break
		}
		if st == slotValid && e.Seq > next {
			return nil, pmem.Corrupt("wal", l.slotAddr(slot), "sequence %d at slot %d is ahead of the log, which ends at %d", e.Seq, slot, next-1)
		}
		if st == slotEmpty || e.Seq < next {
			break
		}
		live = append(live, e)
		next++
	}
	// Resume appending after the last live entry.
	l.seq = next
	l.ckpt = ckpt
	l.cursor = int((next - 1) % uint64(l.n))
	return live, nil
}

// Protected returns the bytes of the rings laid out back to back from base
// that Replay reads and must defend against a flipped bit: each ring's
// checkpoint line and every live entry but the newest. Invalidate the
// newest and the bad slot is exactly where the next append would have
// landed, so Replay has to take it for a torn append and drops an entry
// whose operation was acknowledged (DESIGN.md §7 "Residual risks");
// retired slots are never read. Fault-injection harnesses flip bits
// elsewhere.
func Protected(dev pmem.Dev, base pmem.PAddr, rings, n, stripes int) []pmem.Range {
	var rs []pmem.Range
	c := dev.NewCtx()
	for ; rings > 0; rings-- {
		rs = append(rs, pmem.Range{Start: base, End: base + headerSize})
		l, err := New(dev.Mem(), base, n, stripes)
		base += pmem.PAddr(RegionSize(n, stripes))
		if err != nil {
			continue
		}
		live, err := l.Replay(c)
		if err != nil || len(live) == 0 {
			continue
		}
		for _, e := range live[:len(live)-1] {
			a := l.slotAddr(int((e.Seq - 1) % uint64(n)))
			rs = append(rs, pmem.Range{Start: a, End: a + EntrySize})
		}
	}
	return rs
}

// Seq returns the next sequence number (for tests).
func (l *Log) Seq() uint64 { return l.seq }

// InService reports whether the ring has ever been appended to: its next
// sequence is past 1. On a reopened ring that holds once its checkpoint is
// above 0 or Replay has found a live entry.
func (l *Log) InService() bool { return l.seq > 1 }

// Capacity returns the ring size in entries.
func (l *Log) Capacity() int { return l.n }
