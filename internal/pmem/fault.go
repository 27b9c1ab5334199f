package pmem

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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

// Range is a half-open device address interval [Start, End).
type Range struct {
	Start, End PAddr
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

// FlipBits models media corruption of an image at rest: it flips n
// distinct seeded bits of img inside ranges (the whole image when ranges is
// empty) and returns their bit offsets into img, in the order flipped. Only
// bytes of lines that hold something are candidates — a flip in
// never-written space exercises nothing — and with none it flips nothing.
// Equal arguments flip equal bits.
func FlipBits(img []byte, ranges []Range, n int, seed uint64) []uint64 {
	return flipBits(img, ranges, n, seed, func(bit uint64) { img[bit/8] ^= 1 << (bit % 8) })
}

// flipBits picks FlipBits' bits from img and has flip flip each.
func flipBits(img []byte, ranges []Range, n int, seed uint64, flip func(bit uint64)) []uint64 {
	size := PAddr(len(img))
	if len(ranges) == 0 {
		ranges = []Range{{0, size}}
	}
	// The candidates: each range cut at line boundaries, a piece kept when
	// the line it lies in is nonzero.
	var cand []Range
	room := 0 // bits there are to flip
	for _, r := range ranges {
		for lo := r.Start; lo < min(r.End, size); {
			line := lo &^ (LineSize - 1)
			hi := min(line+LineSize, r.End, size)
			for _, b := range img[line:min(line+LineSize, size)] {
				if b != 0 {
					cand = append(cand, Range{lo, hi})
					room += int(hi-lo) * 8
					break
				}
			}
			lo = hi
		}
	}
	rng := splitmix64(seed ^ 0xD1B54A32D192ED03)
	bits := make([]uint64, 0, n)
	for len(bits) < min(n, room) {
		piece := cand[rng.next()%uint64(len(cand))]
		bit := uint64(piece.Start)*8 + rng.next()%(uint64(piece.End-piece.Start)*8)
		if slices.Contains(bits, bit) {
			continue // a second flip would restore the bit
		}
		flip(bit)
		bits = append(bits, bit)
	}
	return bits
}

// Clone returns an independent copy of the device (images and
// configuration; statistics and an armed crash are not carried over). Used
// for read-only consistency checks against a live image.
func (d *Device) Clone() *Device {
	nd := New(Config{Size: d.size, Mode: d.mode, Strict: d.strict})
	copy(nd.data, d.data)
	if d.strict {
		copy(nd.media, d.media)
	}
	return nd
}
