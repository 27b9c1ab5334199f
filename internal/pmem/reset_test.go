package pmem

import (
	"bytes"
	"testing"
)

// TestResetFollowsEverySource: a tracked device reset to one image after
// another — from two cursors in turn, from a recording device whose cache
// image it copies, after stores of every kind, a crash, flipped bits and a
// torn line — holds exactly what a full copy would leave, in both images,
// however the sources alternate.
func TestResetFollowsEverySource(t *testing.T) {
	const size = 1 << 16
	var journal []FlushDelta
	for i := 0; i < 64; i++ {
		fd := FlushDelta{Line: uint64(i*7) % (size / LineSize)}
		for j := range fd.Data {
			fd.Data[j] = byte(i + j + 1)
		}
		journal = append(journal, fd)
	}
	a, b := NewImageCursor(size, journal), NewImageCursor(size, journal)
	d := New(Config{Size: size, Strict: true})
	c := d.NewCtx()
	scribble := func(i int) {
		addr := PAddr(i * 4096 % size)
		d.WriteU64(addr+8, uint64(i)+1)
		d.Write(addr+100, []byte{1, 2, 3})
		d.Zero(addr+200, 70)
		d.Bytes(addr+1000, 10)[9] = 0xAA
		c.Flush(CatOther, addr, 128)
		d.WriteU8(addr+500, 7) // left unflushed
	}
	held := func(step string, want []byte) {
		t.Helper()
		if err := d.Holds(want); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	for k := 1; k <= len(journal); k++ {
		cur := a
		if k%5 == 0 {
			cur = b // the other source: a full copy
		}
		cur.Advance(k)
		cur.MaterializeInto(d)
		held("materialize", cur.Image())
		scribble(k)
		if k%3 == 0 {
			d.CrashAfterFlushes(0)
			scribble(k + 1)
			d.Crash()
		}
		if k%4 == 0 {
			d.FlipBits(nil, 3, uint64(k))
		}
		if k%2 == 0 && cur.MaterializeTornInto(d, uint64(k)) {
			if k%4 == 0 {
				cur.MaterializeInto(d) // the clean image of the same boundary
				held("materialize after a torn line", cur.Image())
			}
			scribble(k + 2)
		}
	}

	// A cache-image copy out of a recording device, pair by pair.
	rec := New(Config{Size: size, Strict: true, Journal: true})
	rc := rec.NewCtx()
	other := New(Config{Size: size})
	for i := 0; i < 20; i++ {
		rec.WriteU64(PAddr(i*640%size), uint64(i)+1)
		rc.Flush(CatOther, PAddr(i*640%size), 8)
		if i%7 == 6 {
			other.RestoreFrom(rec) // rec's changes now go to other
		}
		d.RestoreFrom(rec)
		held("restore from the recording device", rec.data)
		scribble(i)
	}
	// A crash of the recording device drops what it never flushed, though
	// the copy out took its set of changed lines.
	rec.WriteU64(0, 0xC0FFEE)
	d.RestoreFrom(rec)
	rec.Crash()
	if got := rec.ReadU64(0); got != 1 {
		t.Fatalf("an unflushed store survived the recording device's crash: %#x", got)
	}
	d.RestoreFrom(rec)
	held("restore from the recording device after its crash", rec.data)

	// Copied back the other way, the pair starts over with a full copy.
	rec.RestoreFrom(d)
	if !bytes.Equal(rec.data, d.data) || !bytes.Equal(rec.media, d.data) {
		t.Fatal("a copy back into the recording device is not the device's cache image")
	}
}
