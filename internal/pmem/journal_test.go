package pmem

import (
	"bytes"
	"testing"
)

// journalWorkload runs a deterministic flush pattern that revisits lines
// (so checkpoint folds overwrite earlier deltas) and returns the device.
func journalWorkload(cfg Config) *Device {
	d := New(cfg)
	c := d.NewCtx()
	for i := 0; i < 400; i++ {
		addr := PAddr(64 * uint64(1+i%37))
		c.PersistU64(CatMeta, addr, uint64(i)<<8|0xA5)
	}
	return d
}

func TestJournalCheckpointingByteIdentical(t *testing.T) {
	base := Config{Size: 1 << 16, Strict: true, Journal: true}
	full := journalWorkload(base)

	ck := base
	ck.JournalCheckpointEvery = 64
	capped := journalWorkload(ck)

	if got, want := capped.JournalLen(), full.JournalLen(); got != want {
		t.Fatalf("journal length diverged: checkpointed %d, full %d", got, want)
	}
	if capped.JournalBase() == 0 {
		t.Fatal("workload too short: checkpointing never folded")
	}
	if retained := len(capped.JournalSnapshot()); retained >= 2*64 {
		t.Fatalf("checkpointing retained %d deltas, want < %d", retained, 2*64)
	}

	// Every boundary the capped journal can still reach must reconstruct
	// byte-identically to the unbounded journal.
	fullCur := NewImageCursor(full.Size(), full.JournalSnapshot())
	cappedCur := NewImageCursorAt(capped.JournalBase(), capped.JournalCheckpoint(), capped.JournalSnapshot())
	for k := cappedCur.Boundary(); k <= cappedCur.Boundaries(); k++ {
		fullCur.Advance(k)
		cappedCur.Advance(k)
		if !bytes.Equal(fullCur.Image(), cappedCur.Image()) {
			t.Fatalf("boundary %d: checkpointed image differs from full journal", k)
		}
	}
	// And the final boundary must equal the live media image.
	scratch := New(base)
	cappedCur.MaterializeInto(scratch)
	if !bytes.Equal(scratch.media, capped.media) {
		t.Fatal("final checkpointed boundary differs from live media image")
	}
}

func TestJournalCheckpointTornVariantsMatch(t *testing.T) {
	base := Config{Size: 1 << 16, Strict: true, Journal: true}
	full := journalWorkload(base)
	ck := base
	ck.JournalCheckpointEvery = 50
	capped := journalWorkload(ck)

	sFull := New(base)
	sCapped := New(base)
	fullCur := NewImageCursor(full.Size(), full.JournalSnapshot())
	cappedCur := NewImageCursorAt(capped.JournalBase(), capped.JournalCheckpoint(), capped.JournalSnapshot())
	for k := cappedCur.Boundary(); k < cappedCur.Boundaries(); k += 7 {
		fullCur.Advance(k)
		cappedCur.Advance(k)
		if !fullCur.MaterializeTornInto(sFull, 0xBEEF) || !cappedCur.MaterializeTornInto(sCapped, 0xBEEF) {
			t.Fatalf("boundary %d: torn materialization unexpectedly at end", k)
		}
		if !bytes.Equal(sFull.media, sCapped.media) {
			t.Fatalf("boundary %d: torn images diverge between full and checkpointed journals", k)
		}
	}
}

// TestOnJournalSeesTheCacheImage: the hook runs once per journaled flush,
// in order, and the cache image it observes holds every store made so far —
// the flushed line and the ones no flush has reached — while the media
// image holds the flushed lines only.
func TestOnJournalSeesTheCacheImage(t *testing.T) {
	var d *Device
	calls := 0
	d = New(Config{Size: 1 << 16, Strict: true, Journal: true, OnJournal: func(n int) {
		calls++
		if n != calls || n != d.JournalLen() {
			t.Fatalf("hook call %d reports %d flushes, journal holds %d", calls, n, d.JournalLen())
		}
		if got := d.ReadU64(64 * PAddr(n)); got != uint64(n) {
			t.Fatalf("flush %d: cache image holds %d in the flushed line", n, got)
		}
		if got := d.ReadU64(4096 + 64*PAddr(n)); got != uint64(n) {
			t.Fatalf("flush %d: cache image holds %d in the unflushed line", n, got)
		}
	}})
	c := d.NewCtx()
	for i := 1; i <= 20; i++ {
		d.WriteU64(4096+64*PAddr(i), uint64(i)) // never flushed
		c.PersistU64(CatMeta, 64*PAddr(i), uint64(i))
	}
	if calls != 20 {
		t.Fatalf("%d hook calls for 20 flushes", calls)
	}
	d.Crash()
	if d.ReadU64(64*5) != 5 || d.ReadU64(4096+64*5) != 0 {
		t.Fatal("media image: the flushed line must survive the crash, the unflushed one must not")
	}
}
