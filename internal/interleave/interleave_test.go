package interleave

import (
	"testing"
	"testing/quick"
)

func TestSequentialDegenerate(t *testing.T) {
	// One stripe = plain sequential layout.
	m := New(1024, 1, 1, 64)
	for i := 0; i < 1024; i++ {
		if m.BitOffset(i) != i {
			t.Fatalf("sequential layout broken at %d: %d", i, m.BitOffset(i))
		}
	}
	if m.Lines() != 2 {
		t.Fatalf("1024 bits = 2 lines, got %d", m.Lines())
	}
}

func TestConsecutiveIndicesHitDistinctLines(t *testing.T) {
	for _, s := range []int{2, 3, 4, 6, 8, 16} {
		m := New(4096, 1, s, 64)
		for i := 0; i+1 < 4096; i++ {
			a, b := m.Line(i), m.Line(i+1)
			if a == b {
				t.Fatalf("stripes=%d: indices %d,%d share line %d", s, i, i+1, a)
			}
		}
		// Stronger: any window of min(S, ReflushWindow+1) consecutive
		// indices must touch pairwise-distinct lines.
		w := s
		if w > 5 {
			w = 5
		}
		for i := 0; i+w <= 4096; i++ {
			seen := map[int]bool{}
			for j := 0; j < w; j++ {
				l := m.Line(i + j)
				if seen[l] {
					t.Fatalf("stripes=%d: window at %d reuses line %d", s, i, l)
				}
				seen[l] = true
			}
		}
	}
}

func TestMappingIsBijective(t *testing.T) {
	for _, cfg := range []struct{ n, bits, s int }{
		{100, 1, 6}, {8192, 1, 6}, {128, 64, 4}, {1000, 16, 3}, {7, 8, 6},
	} {
		m := New(cfg.n, cfg.bits, cfg.s, 64)
		seen := make(map[int]int, cfg.n)
		for i := 0; i < cfg.n; i++ {
			off := m.BitOffset(i)
			if off%cfg.bits != 0 {
				t.Fatalf("offset %d not aligned to unit size %d", off, cfg.bits)
			}
			if prev, dup := seen[off]; dup {
				t.Fatalf("cfg %+v: offset %d assigned to both %d and %d", cfg, off, prev, i)
			}
			seen[off] = i
			if off >= m.SizeBytes()*8 {
				t.Fatalf("offset %d beyond region %d bits", off, m.SizeBytes()*8)
			}
		}
	}
}

func TestIndexInverse(t *testing.T) {
	m := New(1000, 8, 6, 64)
	for i := 0; i < 1000; i++ {
		line := m.Line(i)
		slotBit := m.BitOffset(i) - line*64*8
		slot := slotBit / 8
		if got := m.Index(line, slot); got != i {
			t.Fatalf("Index(%d,%d) = %d, want %d", line, slot, got, i)
		}
	}
	if m.Index(0, 64) != -1 {
		t.Fatal("overflowing slot must return -1")
	}
}

func TestIndexInverseProperty(t *testing.T) {
	m := New(4096, 1, 6, 64)
	f := func(raw uint16) bool {
		i := int(raw) % 4096
		line := m.Line(i)
		slot := (m.BitOffset(i) - line*512)
		return m.Index(line, slot) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStripeAssignment(t *testing.T) {
	m := New(100, 1, 6, 64)
	for i := 0; i < 100; i++ {
		if m.Stripe(i) != i%6 {
			t.Fatalf("stripe of %d: %d", i, m.Stripe(i))
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	// 8192 one-bit units over 6 stripes: longest stripe holds
	// ceil(8192/6)=1366 bits -> 3 lines each of 512 bits -> 18 lines.
	m := New(8192, 1, 6, 64)
	if m.Lines() != 18 || m.SizeBytes() != 18*64 {
		t.Fatalf("lines=%d size=%d", m.Lines(), m.SizeBytes())
	}
	if m.Count() != 8192 || m.Stripes() != 6 {
		t.Fatal("accessors wrong")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero count", func() { New(0, 1, 1, 64) })
	mustPanic("zero stripes", func() { New(1, 1, 0, 64) })
	mustPanic("bad unit", func() { New(1, 3, 1, 64) })
	m := New(10, 1, 2, 64)
	mustPanic("index oob", func() { m.BitOffset(10) })
	mustPanic("index neg", func() { m.BitOffset(-1) })
}

func TestByteOffset(t *testing.T) {
	m := New(256, 64, 6, 64) // 8-byte units, 8 per line
	for i := 0; i < 256; i++ {
		if m.ByteOffset(i)*8 != m.BitOffset(i) {
			t.Fatal("byte offset mismatch")
		}
		if m.ByteOffset(i)%8 != 0 {
			t.Fatal("8-byte units must be 8-byte aligned")
		}
	}
}

// TestMappingArithmeticExhaustive pins BitOffset, Stripe, and Index to
// the reference div/mod arithmetic over every divisor shape the
// allocator uses (pow2 and non-pow2 stripe counts, pow2 units-per-line)
// and including the largest counts a slab or WAL ring can reach.
func TestMappingArithmeticExhaustive(t *testing.T) {
	for _, tc := range []struct {
		count, unitBits, stripes int
	}{
		{7900, 1, 6},   // min-class slab bitmap, default stripes
		{7900, 1, 1},   // sequential baseline layout
		{4096, 1, 8},   // pow2 stripes
		{1024, 256, 6}, // WAL ring (32 B entries)
		{65536, 1, 6},  // large count, non-pow2 stripes
		{333, 1, 48},   // stripes > 1 line's worth of rounds
		{129, 8, 3},
	} {
		m := New(tc.count, tc.unitBits, tc.stripes, 64)
		for i := 0; i < tc.count; i++ {
			wantS := i % tc.stripes
			p := i / tc.stripes
			wantOff := (p/m.unitsPerLine*tc.stripes+wantS)*m.bitsPerLine + (p%m.unitsPerLine)*tc.unitBits
			if got := m.Stripe(i); got != wantS {
				t.Fatalf("count=%d stripes=%d: Stripe(%d)=%d want %d", tc.count, tc.stripes, i, got, wantS)
			}
			if got := m.BitOffset(i); got != wantOff {
				t.Fatalf("count=%d stripes=%d: BitOffset(%d)=%d want %d", tc.count, tc.stripes, i, got, wantOff)
			}
			// The inverse must agree with the forward mapping.
			line := wantOff / m.bitsPerLine
			slot := (wantOff % m.bitsPerLine) / tc.unitBits
			if got := m.Index(line, slot); got != i {
				t.Fatalf("count=%d stripes=%d: Index(%d,%d)=%d want %d", tc.count, tc.stripes, line, slot, got, i)
			}
		}
	}
}

// TestTableMatchesMapping: a table holds its mapping's offsets and stripes,
// bytes only for whole-byte units, and one geometry has one table.
func TestTableMatchesMapping(t *testing.T) {
	for _, m := range []Mapping{New(1000, 1, 6, 64), New(1024, 256, 6, 64), New(77, 64, 1, 64)} {
		tab := m.Table()
		if tab != m.Table() {
			t.Fatal("one geometry, two tables")
		}
		if whole := m.unitBits%8 == 0; (tab.Byte != nil) != whole {
			t.Fatalf("%d-bit units: byte table present = %v", m.unitBits, tab.Byte != nil)
		}
		for i := 0; i < m.Count(); i++ {
			if int(tab.Bit[i]) != m.BitOffset(i) || int(tab.Stripe[i]) != m.Stripe(i) {
				t.Fatalf("index %d: table (%d, %d), mapping (%d, %d)", i, tab.Bit[i], tab.Stripe[i], m.BitOffset(i), m.Stripe(i))
			}
			if tab.Byte != nil && int(tab.Byte[i]) != m.ByteOffset(i) {
				t.Fatalf("index %d: byte %d, mapping %d", i, tab.Byte[i], m.ByteOffset(i))
			}
		}
	}
}
