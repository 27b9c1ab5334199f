package pmem

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// ErrCorrupted is the sentinel wrapped by every CorruptError, so callers
// can match any detected-corruption failure with errors.Is.
var ErrCorrupted = errors.New("pmem: corrupted metadata")

// CorruptError reports detected (not silently consumed) metadata
// corruption: a checksum mismatch, an out-of-range pointer, an impossible
// field value. Region names the structure ("superblock", "slab", "blog",
// "wal", "extent"), Addr locates it on the device.
type CorruptError struct {
	Region string
	Addr   PAddr
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("pmem: corrupted %s at %#x: %s", e.Region, e.Addr, e.Detail)
}

// Unwrap makes errors.Is(err, ErrCorrupted) hold for every CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorrupted }

// Corrupt builds a CorruptError.
func Corrupt(region string, addr PAddr, format string, args ...any) error {
	return &CorruptError{Region: region, Addr: addr, Detail: fmt.Sprintf(format, args...)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealU64 packs a 48-bit value with a 16-bit CRC (Castagnoli, over the six
// value bytes) into one 8-byte word, so a single-word atomic store carries
// its own corruption check. Zero seals to zero: freshly zeroed persistent
// memory must unseal as a valid zero.
func SealU64(v uint64) uint64 {
	if v>>48 != 0 {
		panic(fmt.Sprintf("pmem: SealU64 value %#x exceeds 48 bits", v))
	}
	if v == 0 {
		return 0
	}
	// The bytewise table loop of crc32.Checksum(b[:6], castagnoli), spelled
	// out: handing the package a stack buffer makes it escape (the
	// Castagnoli path is chosen at run time), and a seal sits on every
	// checkpoint move.
	crc := ^uint32(0)
	for i := 0; i < 6; i++ {
		crc = castagnoli[byte(crc)^byte(v>>(8*i))] ^ crc>>8
	}
	return v | uint64(^crc&0xFFFF)<<48
}

// UnsealU64 validates and unpacks a word written by SealU64. ok is false
// when the embedded CRC does not match (the word was torn or flipped).
func UnsealU64(w uint64) (v uint64, ok bool) {
	if w == 0 {
		return 0, true
	}
	v = w & (1<<48 - 1)
	return v, SealU64(v) == w
}

// SealU32 packs a 16-bit value with a 16-bit CRC into one 4-byte word:
// the 32-bit sibling of SealU64, for single-word atomic state flags
// (e.g. the slab morph flag) that live in u32 header fields. Zero seals
// to zero so freshly zeroed memory unseals as a valid zero.
func SealU32(v uint32) uint32 {
	if v>>16 != 0 {
		panic(fmt.Sprintf("pmem: SealU32 value %#x exceeds 16 bits", v))
	}
	if v == 0 {
		return 0
	}
	b := [2]byte{byte(v), byte(v >> 8)}
	return v | crc32.Checksum(b[:], castagnoli)&0xFFFF<<16
}

// UnsealU32 validates and unpacks a word written by SealU32. ok is false
// when the embedded CRC does not match (the word was torn or flipped).
func UnsealU32(w uint32) (v uint32, ok bool) {
	if w == 0 {
		return 0, true
	}
	v = w & 0xFFFF
	return v, SealU32(v) == w
}

// CatAny matches every flush category in a FaultPlan.
const CatAny Category = -1

// Range is a half-open device address interval [Start, End).
type Range struct {
	Start, End PAddr
}

func (r Range) contains(addr PAddr) bool { return addr >= r.Start && addr < r.End }

// FaultPlan programs deterministic fault injection. CrashAfter counts
// flushes of Category (CatAny = all): that many persist normally, then the
// next one triggers the crash. If TornLine is set the triggering flush
// persists only a seeded subset of its line's eight 8-byte words (8-byte
// stores are atomic; the line is not). Flips > 0 additionally flips that
// many seeded bits in nonzero persisted lines inside FlipIn (whole device
// when empty) at Crash time, modelling media corruption.
type FaultPlan struct {
	CrashAfter int64
	Category   Category
	TornLine   bool
	Seed       uint64
	Flips      int
	FlipIn     []Range
}

type faultState struct {
	plan      FaultPlan
	remaining atomic.Int64
}

// InjectFaults arms plan on the device (replacing any armed plan; nil
// disarms). The plan triggers at most once and is cleared by Crash.
func (d *Device) InjectFaults(plan *FaultPlan) {
	if plan == nil {
		d.fault.Store(nil)
		d.armFlushGate()
		return
	}
	fs := &faultState{plan: *plan}
	fs.remaining.Store(plan.CrashAfter)
	d.fault.Store(fs)
	d.armFlushGate()
}

// splitmix64 is the usual 64-bit mixer; good enough for deterministic
// fault-site selection and cheap to reseed per line.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// tearLine persists a seeded subset of the line's eight 8-byte words from
// the cache image to the media image (strict ADR only): the torn state a
// power cut leaves when a 64-byte line was mid-flight.
func (d *Device) tearLine(line, seed uint64) {
	if !d.strict || d.mode == ModeEADR {
		return
	}
	rng := splitmix64(seed ^ line*0xA24BAED4963EE407)
	mask := rng.next() // bit i set => word i persists
	off := line * LineSize
	mu := d.lineLock(line)
	mu.Lock()
	for w := uint64(0); w < LineSize/8; w++ {
		if mask&(1<<w) != 0 {
			copy(d.media[off+w*8:off+w*8+8], d.data[off+w*8:off+w*8+8])
		}
	}
	mu.Unlock()
}

// applyFlips flips plan.Flips seeded bits in nonzero persisted lines
// within plan.FlipIn. Called from Crash before the media image becomes
// the visible one.
func (d *Device) applyFlips(fs *faultState) {
	p := &fs.plan
	if p.Flips <= 0 {
		return
	}
	ranges := p.FlipIn
	if len(ranges) == 0 {
		ranges = []Range{{0, PAddr(d.size)}}
	}
	// Candidate lines: persisted (nonzero) lines intersecting a range.
	var cand []uint64
	for _, r := range ranges {
		first := uint64(r.Start) / LineSize
		last := (uint64(r.End) + LineSize - 1) / LineSize
		if last > d.size/LineSize {
			last = d.size / LineSize
		}
		for line := first; line < last; line++ {
			off := line * LineSize
			zero := true
			for _, b := range d.media[off : off+LineSize] {
				if b != 0 {
					zero = false
					break
				}
			}
			if !zero {
				cand = append(cand, line)
			}
		}
	}
	if len(cand) == 0 {
		return
	}
	rng := splitmix64(p.Seed ^ 0xD1B54A32D192ED03)
	for i := 0; i < p.Flips; i++ {
		line := cand[rng.next()%uint64(len(cand))]
		bit := rng.next() % (LineSize * 8)
		d.media[line*LineSize+bit/8] ^= 1 << (bit % 8)
	}
}

// Clone returns an independent copy of the device (images and
// configuration; statistics and armed faults are not carried over). Used
// for read-only consistency checks against a live image.
func (d *Device) Clone() *Device {
	nd := New(Config{Size: d.size, Mode: d.mode, Strict: d.strict, Banks: len(d.banks)})
	copy(nd.data, d.data)
	if d.strict {
		copy(nd.media, d.media)
	}
	return nd
}
