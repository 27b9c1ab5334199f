package pmem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// A scratch device the crash checker resets to one crash image after
// another copies, per reset, only the lines that can differ: those the
// device stored to since its last reset — typed stores, Write, Zero, Bytes
// views, FlipBits, a torn line — and those its image source changed since
// then. A reset leaves both images equal, so a flush or a Crash, which
// copy one image into the other, change only lines already stored to. A
// device tracks the lines it changes from its first reset on (a journaled
// device, which the checker copies cache images out of, from creation); a
// device that is never reset pays one nil check per store for it.

// lineSet is a set of cache-line numbers, one bit per line of a device,
// safe for concurrent adds.
type lineSet struct {
	words []atomic.Uint64
}

func newLineSet(size uint64) *lineSet {
	lines := (size + LineSize - 1) / LineSize
	return &lineSet{words: make([]atomic.Uint64, (lines+63)/64)}
}

// add puts line in the set.
func (s *lineSet) add(line uint64) {
	w, bit := &s.words[line/64], uint64(1)<<(line%64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// addRange puts every line [addr, addr+n) touches in the set.
func (s *lineSet) addRange(addr PAddr, n int) {
	if n <= 0 {
		return
	}
	for line := uint64(addr) / LineSize; line <= (uint64(addr)+uint64(n)-1)/LineSize; line++ {
		s.add(line)
	}
}

// each calls fn for every line in the set, in ascending order; take also
// empties the set as it goes.
func (s *lineSet) each(take bool, fn func(line uint64)) {
	for i := range s.words {
		w := s.words[i].Load()
		if w != 0 && take {
			w = s.words[i].Swap(0)
		}
		for ; w != 0; w &= w - 1 {
			fn(uint64(i)*64 + uint64(bits.TrailingZeros64(w)))
		}
	}
}

func (s *lineSet) clear() {
	for i := range s.words {
		s.words[i].Store(0)
	}
}

// mark notes that [addr, addr+n) may change, on a tracked image.
func (m Mem) mark(addr PAddr, n int) {
	if m.lines != nil {
		m.lines.addRange(addr, n)
	}
}

// copyLine copies line from src into the device's cache image, and its
// media image on a strict device.
func (d *Device) copyLine(line uint64, src []byte) {
	off := line * LineSize
	end := min(off+LineSize, d.size)
	copy(d.data[off:end], src[off:end])
	if d.strict {
		copy(d.media[off:end], src[off:end])
	}
}

// reset puts img in the device's images and clears every piece of runtime
// state (Restore). src names where img comes from: when the device's last
// reset was from src too and changed is non-nil — it adds, through add,
// every line src's image changed since then — only those lines and the
// ones the device changed itself are copied; otherwise all of img is.
func (d *Device) reset(img []byte, src any, changed func(add func(line uint64))) {
	if uint64(len(img)) != d.size {
		panic("pmem: Restore image size mismatch")
	}
	if d.lines != nil && src != nil && d.peer == src && changed != nil {
		changed(d.lines.add)
		d.lines.each(true, func(line uint64) { d.copyLine(line, img) })
	} else {
		copy(d.data, img)
		if d.strict {
			copy(d.media, img)
		}
		if d.lines == nil {
			d.lines = newLineSet(d.size)
		} else {
			d.lines.clear()
		}
	}
	d.peer = src
	d.crashed.Store(false)
	d.crashAfter.Store(-1)
	d.armFlushGate()
	d.statsMu.Lock()
	d.flushTotal = 0
	d.statsMu.Unlock()
	d.ResetTimeline()
	d.ResetStats() // statistics and trace
	d.journalMu.Lock()
	d.journal = nil
	d.journalMu.Unlock()
}

// Restore replaces the device's images with img and clears every piece of
// runtime state — crash flags, flush counters, traces, bank clocks,
// statistics and the journal — as if the device had been freshly
// created already holding img. img says nothing of what changed, so the
// whole of it is copied; the device tracks the lines it changes from here
// on.
func (d *Device) Restore(img []byte) { d.reset(img, nil, nil) }

// outTo is the peer a device that was copied out of keeps: the device it
// was copied into.
type outTo struct{ d *Device }

// RestoreFrom is Restore of src's cache image — every store src has seen,
// flushed or not — into the device's images. When the device was last
// restored from src, and src has been copied into no other device since,
// only the lines either of them changed in between are copied.
func (d *Device) RestoreFrom(src *Device) {
	if src == d {
		panic("pmem: RestoreFrom the device itself")
	}
	var changed func(add func(line uint64))
	if src.lines != nil && src.peer == (outTo{d}) {
		changed = func(add func(line uint64)) { src.lines.each(true, add) }
	} else if src.lines != nil {
		src.lines.clear()
	}
	src.peer = outTo{d}
	d.reset(src.data, src, changed)
}

// FlipBits is the package's FlipBits on the device's cache image, and on
// a strict device its media image too: corruption at rest. Only the lines
// it flips count as changed.
func (d *Device) FlipBits(ranges []Range, n int, seed uint64) []uint64 {
	return flipBits(d.data, ranges, n, seed, func(bit uint64) {
		d.mark(PAddr(bit/8), 1)
		d.data[bit/8] ^= 1 << (bit % 8)
		if d.strict {
			d.media[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// Holds reports, as an error naming the first line that differs and the
// image it differs in, whether the device's cache image — and on a strict
// device its media image — equal img byte for byte. A reset's test holds
// the device to what a full copy would have left.
func (d *Device) Holds(img []byte) error {
	if uint64(len(img)) != d.size {
		return fmt.Errorf("pmem: %d-byte image against a %d-byte device", len(img), d.size)
	}
	for i, b := range [][]byte{d.data, d.media} {
		if b == nil || bytes.Equal(b, img) {
			continue
		}
		off := 0
		for b[off] == img[off] {
			off++
		}
		return fmt.Errorf("line %d of the %s image differs", off/LineSize, [...]string{"cache", "media"}[i])
	}
	return nil
}
