package pmem

// The flush journal records every line that reaches the media image, in
// flush order, as a copy-on-flush delta. It is the foundation of the
// crash-point model checker (internal/crashmc): the device image at
// persistence boundary k is, by construction, a zeroed device with the
// first k deltas applied — exactly what CrashAfterFlushes(k) followed by
// Crash() would leave behind, but derivable from image k-1 with a single
// 64-byte copy instead of a full workload replay.

// FlushDelta is one journaled line flush: the line's post-flush media
// content, plus provenance — which worker flushed it and at which
// scheduler step (for multi-threaded trace recordings; -1/0 when no
// scheduler is attached).
type FlushDelta struct {
	// Line is the flushed cache-line number (byte offset / LineSize).
	Line uint64
	// Cat is the flush's charge category (WAL, metadata, ...), used by
	// coverage reports to classify what was in flight at a boundary.
	Cat Category
	// Thread is the flushing context's ThreadID (0 unless assigned).
	Thread int32
	// Step is the scheduler's global step counter at flush time (-1 when
	// the flushing context had no scheduler hook).
	Step int32
	// Data is the full line as it reached the media.
	Data [LineSize]byte
}

// JournalLen returns the number of journaled flushes so far. With the journal enabled there are
// JournalLen()+1 persistence boundaries: the empty image (k=0) through
// the fully flushed image (k=JournalLen()).
func (d *Device) JournalLen() int {
	d.journalMu.Lock()
	defer d.journalMu.Unlock()
	return len(d.journal)
}

// JournalSnapshot returns a copy of the flush deltas.
func (d *Device) JournalSnapshot() []FlushDelta {
	d.journalMu.Lock()
	defer d.journalMu.Unlock()
	out := make([]FlushDelta, len(d.journal))
	copy(out, d.journal)
	return out
}

// ImageCursor incrementally reconstructs the media image at successive
// persistence boundaries of a recorded flush journal. Advancing from
// boundary k to k+1 applies one 64-byte delta; enumerating every boundary
// of an n-flush trace therefore costs O(n) line copies total, not O(n²)
// replays. A cursor only moves forward; enumeration partitions boundary
// ranges across cursors (one per worker) rather than rewinding.
type ImageCursor struct {
	journal []FlushDelta
	img     []byte
	k       int
	// dev is the device the cursor last materialized into and last the
	// boundary it did so at: journal[last:k] holds every line a reset of
	// dev has to take from the cursor.
	dev  *Device
	last int
}

// NewImageCursor creates a cursor over journal for a device of size
// bytes, positioned at boundary 0 (the all-zero image).
func NewImageCursor(size uint64, journal []FlushDelta) *ImageCursor {
	return &ImageCursor{journal: journal, img: make([]byte, size)}
}

// Boundary returns the cursor's current persistence boundary.
func (c *ImageCursor) Boundary() int { return c.k }

// Image returns the cursor's current image. The slice is the cursor's
// working buffer: read-only, valid until the next Advance.
func (c *ImageCursor) Image() []byte { return c.img }

// Boundaries returns the last boundary the cursor can reach; valid
// boundaries are 0 through Boundaries() inclusive.
func (c *ImageCursor) Boundaries() int { return len(c.journal) }

// Advance moves the cursor forward to boundary k, applying the journal
// deltas in [Boundary(), k). Rewinding panics.
func (c *ImageCursor) Advance(k int) {
	if k < c.k || k > len(c.journal) {
		panic("pmem: ImageCursor.Advance out of range")
	}
	for ; c.k < k; c.k++ {
		fd := &c.journal[c.k]
		off := fd.Line * LineSize
		copy(c.img[off:off+LineSize], fd.Data[:])
	}
}

// MaterializeInto restores d to the image at the cursor's boundary: the
// exact state a power cut at this persistence boundary would leave. The
// device is fully reset (Restore), so one scratch device can be reused
// across the whole enumeration; when the cursor last materialized into d,
// the reset copies only the lines the cursor advanced over and the lines
// d changed since.
func (c *ImageCursor) MaterializeInto(d *Device) {
	var changed func(add func(line uint64))
	if c.dev == d {
		changed = func(add func(line uint64)) {
			for i := range c.journal[c.last:c.k] {
				add(c.journal[c.last+i].Line)
			}
		}
	}
	d.reset(c.img, c, changed)
	c.dev, c.last = d, c.k
}

// MaterializeTornInto restores d to the cursor's boundary image plus a
// torn variant of the *next* flush: the line that was mid-flight when
// power was lost persists only a seeded subset of its eight 8-byte words
// (8-byte stores are atomic; the line is not): the one place a torn line is
// made. It reports false (leaving d untouched) when the cursor sits at the final
// boundary and no flush is in flight.
func (c *ImageCursor) MaterializeTornInto(d *Device, seed uint64) bool {
	if c.k >= len(c.journal) {
		return false
	}
	c.MaterializeInto(d)
	fd := &c.journal[c.k]
	rng := splitmix64(seed ^ fd.Line*0xA24BAED4963EE407)
	mask := rng.next() // bit i set => word i persists
	off := fd.Line * LineSize
	d.mark(PAddr(off), LineSize)
	for w := uint64(0); w < LineSize/8; w++ {
		if mask&(1<<w) != 0 {
			copy(d.data[off+w*8:off+w*8+8], fd.Data[w*8:w*8+8])
			if d.strict {
				copy(d.media[off+w*8:off+w*8+8], fd.Data[w*8:w*8+8])
			}
		}
	}
	return true
}
