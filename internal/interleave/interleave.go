// Package interleave implements the two-level interleaving arithmetic of
// NVAlloc's Section 5.1. Consecutive logical indices (block numbers, WAL
// slots, bookkeeping-log entries) are spread over S "stripes", one stripe
// per cache line, so that back-to-back persistent updates never land in
// the same cache line and therefore never trigger a reflush.
//
// A Mapping describes a metadata array of N logical units, each unit
// occupying UnitBits bits, packed so that stripe s owns the units
// {s, s+S, s+2S, ...}. Stripes are laid out line by line: each cache line
// holds LineSize*8/UnitBits units of one stripe, and once every stripe has
// filled a line the layout advances to the next "round" of S lines.
//
// Logical index i maps to:
//
//	stripe   s = i mod S
//	position p = i div S
//	line     = (p div unitsPerLine)*S + s
//	slot     = p mod unitsPerLine
//
// With S = 1 the mapping degenerates to the sequential layout used by the
// paper's baselines.
package interleave

import (
	"fmt"
	"sync"
)

// Mapping is an interleaved layout of fixed-size units over cache lines.
// The zero value is not usable; call New.
type Mapping struct {
	stripes      int
	unitBits     int
	unitsPerLine int
	count        int
	lines        int
	bitsPerLine  int
}

// New builds a mapping for count units of unitBits bits each over the given
// number of stripes on lineBytes-sized cache lines. unitBits must divide
// the line size in bits evenly (1, 2, 4, 8, 16, 32, 64, ... bit units).
func New(count, unitBits, stripes, lineBytes int) Mapping {
	if count <= 0 {
		panic("interleave: count must be positive")
	}
	if stripes <= 0 {
		panic("interleave: stripes must be positive")
	}
	bitsPerLine := lineBytes * 8
	if unitBits <= 0 || bitsPerLine%unitBits != 0 {
		panic(fmt.Sprintf("interleave: unitBits %d does not evenly pack a %d-byte line", unitBits, lineBytes))
	}
	upl := bitsPerLine / unitBits
	// Rounds of S lines; the last round may be partially used.
	positions := (count + stripes - 1) / stripes // units in the longest stripe
	linesPerStripe := (positions + upl - 1) / upl
	return Mapping{
		stripes:      stripes,
		unitBits:     unitBits,
		unitsPerLine: upl,
		count:        count,
		lines:        linesPerStripe * stripes,
		bitsPerLine:  bitsPerLine,
	}
}

// Stripes returns the stripe count S.
func (m Mapping) Stripes() int { return m.stripes }

// Count returns the number of logical units.
func (m Mapping) Count() int { return m.count }

// Lines returns the number of cache lines the layout occupies.
func (m Mapping) Lines() int { return m.lines }

// SizeBytes returns the byte footprint of the layout (whole lines).
func (m Mapping) SizeBytes() int { return m.lines * m.bitsPerLine / 8 }

// Stripe returns which stripe logical index i belongs to.
func (m Mapping) Stripe(i int) int { return i % m.stripes }

// BitOffset returns the bit offset (from the start of the metadata region)
// of logical unit i.
func (m Mapping) BitOffset(i int) int {
	if i < 0 || i >= m.count {
		panic(fmt.Sprintf("interleave: index %d out of range [0,%d)", i, m.count))
	}
	s := i % m.stripes
	p := i / m.stripes
	line := (p/m.unitsPerLine)*m.stripes + s
	slot := p % m.unitsPerLine
	return line*m.bitsPerLine + slot*m.unitBits
}

// ByteOffset returns the byte offset of unit i; unitBits must be a multiple
// of 8 for this to be exact.
func (m Mapping) ByteOffset(i int) int {
	return m.BitOffset(i) / 8
}

// Line returns the cache-line number (within the region) holding unit i.
func (m Mapping) Line(i int) int {
	return m.BitOffset(i) / m.bitsPerLine
}

// Index inverts the mapping: given a line number and slot within that line,
// it returns the logical index, or -1 if that slot is beyond Count.
func (m Mapping) Index(line, slot int) int {
	s := line % m.stripes
	round := line / m.stripes
	p := round*m.unitsPerLine + slot
	i := p*m.stripes + s
	if i >= m.count || slot >= m.unitsPerLine {
		return -1
	}
	return i
}

// Table is a Mapping tabulated per logical index. The mapping arithmetic
// costs two hardware divisions per lookup, and the allocator resolves an
// offset on every malloc and free (a slab bitmap bit, a WAL slot), so its
// hot paths read a table instead. Tables are shared process-wide and must
// not be written: the allocator uses a handful of geometries (one per size
// class and stripe count, one per ring size), and a table is a pure
// function of its mapping.
type Table struct {
	Bit    []int32 // logical index -> BitOffset
	Byte   []int32 // logical index -> ByteOffset; nil unless units are whole bytes
	Stripe []uint8 // logical index -> Stripe
}

var tables sync.Map // Mapping -> *Table

// Table returns m's shared table, building it on the geometry's first use.
// It panics on more than 256 stripes, which Stripe's entries cannot name.
func (m Mapping) Table() *Table {
	if v, ok := tables.Load(m); ok {
		return v.(*Table)
	}
	if m.stripes > 256 {
		panic(fmt.Sprintf("interleave: %d stripes do not fit a table", m.stripes))
	}
	t := &Table{Bit: make([]int32, m.count), Stripe: make([]uint8, m.count)}
	if m.unitBits%8 == 0 {
		t.Byte = make([]int32, m.count)
	}
	for i := range t.Bit {
		off := m.BitOffset(i)
		t.Bit[i] = int32(off)
		t.Stripe[i] = uint8(m.Stripe(i))
		if t.Byte != nil {
			t.Byte[i] = int32(off / 8)
		}
	}
	v, _ := tables.LoadOrStore(m, t)
	return v.(*Table)
}
