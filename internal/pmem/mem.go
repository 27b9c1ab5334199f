package pmem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Mem is a concrete view of a device's byte image: the cache-image slice
// plus the strict-mode line-lock stripes (nil on non-strict and direct
// devices). It exists for the allocator hot paths — slab bitmaps, WAL
// slots, bookkeeping-log entries run typed accessors on every malloc and
// free, and calling them through the Dev interface costs an indirect call
// per access. A Mem is copyable and cheap to hold by value; all copies
// alias the same storage, and the view stays valid across simulated
// crashes (Crash and LoadImage copy into the backing array in place).
//
// Both devices embed their Mem, so the accessors below are also the
// devices' own (promoted) accessors: stores take the covering line-lock
// stripes when present, so strict-mode flushes observe consistent lines;
// Bytes bypasses the stripes.
type Mem struct {
	data []byte
	// lineLocks stripe-locks cache lines (strict simulated devices only).
	lineLocks []sync.Mutex
	// lines, once a simulated device tracks what it changes (reset.go),
	// collects the lines every store and Bytes view may have written; nil
	// before then and on direct devices.
	lines *lineSet
}

// image is Mem under the name the devices embed it by: a field called
// Mem would collide with the Mem() method Dev requires.
type image = Mem

// Mem returns the device's concrete image view.
func (d *Device) Mem() Mem { return d.image }

// Mem returns the device's concrete image view.
func (d *DirectDev) Mem() Mem { return d.image }

func (m Mem) check(addr PAddr, n int) {
	if uint64(addr)+uint64(n) > uint64(len(m.data)) {
		panic(fmt.Sprintf("pmem: access [%#x,+%d) out of device bounds %#x", addr, n, len(m.data)))
	}
}

// checkWrite is check for an access that may write [addr, addr+n): on a
// tracked image it also notes the lines (reset.go). It costs a direct
// device's stores what check does.
func (m Mem) checkWrite(addr PAddr, n int) {
	if uint64(addr)+uint64(n) > uint64(len(m.data)) {
		m.check(addr, n)
	}
	if m.lines != nil {
		m.lines.addRange(addr, n)
	}
}

// Size returns the viewed image's size in bytes.
func (m Mem) Size() uint64 { return uint64(len(m.data)) }

// lineLock returns the stripe lock covering line (strict mode only).
func (m Mem) lineLock(line uint64) *sync.Mutex {
	return &m.lineLocks[line%uint64(len(m.lineLocks))]
}

// lockSpan locks the one or two line stripes covering a small write
// [addr, addr+n), in stripe order so concurrent spanning writes cannot
// deadlock, and returns an unlock function. Callers have already checked
// m.lineLocks != nil.
func (m Mem) lockSpan(addr PAddr, n int) func() {
	s := uint64(len(m.lineLocks))
	f := (uint64(addr) / LineSize) % s
	l := ((uint64(addr) + uint64(n) - 1) / LineSize) % s
	if f == l {
		mu := &m.lineLocks[f]
		mu.Lock()
		return mu.Unlock
	}
	if f > l {
		f, l = l, f
	}
	a, b := &m.lineLocks[f], &m.lineLocks[l]
	a.Lock()
	b.Lock()
	return func() { b.Unlock(); a.Unlock() }
}

// Bytes returns a mutable view of [addr, addr+n) in the cache image. The
// caller is responsible for flushing any stores it performs through the
// view, and — since the view bypasses the line-lock stripes — for its own
// line-level synchronization if it shares lines across goroutines. This
// is the bulk-access escape hatch; prefer the typed accessors. On a
// tracked device the whole range counts as changed.
func (m Mem) Bytes(addr PAddr, n int) []byte {
	m.checkWrite(addr, n)
	return m.data[addr : uint64(addr)+uint64(n) : uint64(addr)+uint64(n)]
}

// ReadU64 loads a little-endian uint64.
func (m Mem) ReadU64(addr PAddr) uint64 {
	m.check(addr, 8)
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// WriteU64 stores a little-endian uint64.
func (m Mem) WriteU64(addr PAddr, v uint64) {
	m.checkWrite(addr, 8)
	if m.lineLocks != nil {
		defer m.lockSpan(addr, 8)()
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// ReadU32 loads a little-endian uint32.
func (m Mem) ReadU32(addr PAddr) uint32 {
	m.check(addr, 4)
	return binary.LittleEndian.Uint32(m.data[addr:])
}

// WriteU32 stores a little-endian uint32.
func (m Mem) WriteU32(addr PAddr, v uint32) {
	m.checkWrite(addr, 4)
	if m.lineLocks != nil {
		defer m.lockSpan(addr, 4)()
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
}

// ReadU16 loads a little-endian uint16.
func (m Mem) ReadU16(addr PAddr) uint16 {
	m.check(addr, 2)
	return binary.LittleEndian.Uint16(m.data[addr:])
}

// WriteU16 stores a little-endian uint16.
func (m Mem) WriteU16(addr PAddr, v uint16) {
	m.checkWrite(addr, 2)
	if m.lineLocks != nil {
		defer m.lockSpan(addr, 2)()
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
}

// ReadU8 loads one byte.
func (m Mem) ReadU8(addr PAddr) byte {
	m.check(addr, 1)
	return m.data[addr]
}

// WriteU8 stores one byte.
func (m Mem) WriteU8(addr PAddr, v byte) {
	m.checkWrite(addr, 1)
	if m.lineLocks != nil {
		mu := m.lineLock(uint64(addr) / LineSize)
		mu.Lock()
		m.data[addr] = v
		mu.Unlock()
		return
	}
	m.data[addr] = v
}

// Write copies p into the image at addr.
func (m Mem) Write(addr PAddr, p []byte) {
	m.checkWrite(addr, len(p))
	if m.lineLocks != nil && len(p) > 0 {
		// Chunk the copy one line at a time so at most one stripe is held
		// and arbitrary spans cannot deadlock against each other.
		for off := 0; off < len(p); {
			line := (uint64(addr) + uint64(off)) / LineSize
			chunk := int((line+1)*LineSize - (uint64(addr) + uint64(off)))
			if chunk > len(p)-off {
				chunk = len(p) - off
			}
			mu := m.lineLock(line)
			mu.Lock()
			copy(m.data[uint64(addr)+uint64(off):], p[off:off+chunk])
			mu.Unlock()
			off += chunk
		}
		return
	}
	copy(m.data[addr:], p)
}

// Zero clears [addr, addr+n).
func (m Mem) Zero(addr PAddr, n int) {
	m.checkWrite(addr, n)
	if m.lineLocks != nil && n > 0 {
		for off := 0; off < n; {
			line := (uint64(addr) + uint64(off)) / LineSize
			chunk := int((line+1)*LineSize - (uint64(addr) + uint64(off)))
			if chunk > n-off {
				chunk = n - off
			}
			mu := m.lineLock(line)
			mu.Lock()
			b := m.data[uint64(addr)+uint64(off) : uint64(addr)+uint64(off)+uint64(chunk)]
			for i := range b {
				b[i] = 0
			}
			mu.Unlock()
			off += chunk
		}
		return
	}
	b := m.data[addr : uint64(addr)+uint64(n)]
	for i := range b {
		b[i] = 0
	}
}
