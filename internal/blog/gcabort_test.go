package blog

import (
	"errors"
	"testing"

	"nvalloc/internal/pmem"
)

// gcAddr maps a small integer to a distinct page-aligned record address.
// Blog records are opaque payload addresses; they need not lie inside the
// test device.
func gcAddr(i int) pmem.PAddr { return pmem.PAddr(1<<24) + pmem.PAddr(i)*0x1000 }

// TestSlowGCAbortOnChunkExhaustion drives the incremental slow GC into
// mid-flight chunk exhaustion: the upfront capacity check passes, then
// chunks taken past the record calls' room check carve the region break
// out from under the copy steps. The GC must abort cleanly — old chain untouched, log usable,
// records recoverable — and a restart must succeed once space exists.
func TestSlowGCAbortOnChunkExhaustion(t *testing.T) {
	dev, l, c := newTestLog(t)
	per := l.EntriesPerChunk()

	// Fill ~120 chunks with live entries: the capacity check sees enough
	// headroom (256-chunk region) and lets the GC start.
	nFill := 120 * per
	for i := 0; i < nFill; i++ {
		if err := l.RecordAlloc(c, gcAddr(i), 4096, false); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := l.startSlowGC(c); err != nil {
		t.Fatalf("startSlowGC: %v", err)
	}
	if !l.GCActive() {
		t.Fatal("GC not active after start")
	}

	// Steal the headroom: take ~30 chunks from the break, which the
	// capacity check had counted for the new chain.
	for i := 0; i < 30; i++ {
		if err := l.newChunk(c); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}

	// Step the GC to exhaustion: it must fail and abort, not wedge.
	var gcErr error
	for i := 0; i < 1000; i++ {
		done, err := l.slowGCStep(c, 1)
		if err != nil {
			gcErr = err
			break
		}
		if done {
			break
		}
	}
	if gcErr == nil {
		t.Fatal("slow GC completed despite stolen chunks; want mid-flight abort")
	}
	if l.GCActive() {
		t.Fatal("GC still active after abort")
	}

	// An immediate restart must be refused by the capacity check (the
	// region genuinely cannot hold a full copy any more)...
	if _, err := l.SlowGC(c); err == nil {
		t.Fatal("SlowGC restarted without capacity; want upfront refusal")
	}
	// ...so a record is refused, and a free still goes ahead.
	if err := l.RecordAlloc(c, gcAddr(nFill), 8192, false); !errors.Is(err, ErrFull) {
		t.Fatalf("append after abort: %v, want ErrFull", err)
	}
	if err := l.RecordFree(c, gcAddr(0)); err != nil {
		t.Fatalf("free after abort: %v", err)
	}

	// The old chain was never touched: a crash right after the abort
	// recovers every record but the freed one.
	dev.Crash()
	_, recs := reopen(t, dev)
	want := nFill - 1
	if len(recs) != want {
		t.Fatalf("recovered %d records, want %d", len(recs), want)
	}
}

// TestSlowGCAbortAndRestart aborts a partially copied slow GC directly
// (the abort path independent of the exhaustion trigger) on a log with
// headroom, and requires a fresh SlowGC to then complete with the right
// live count and a crash afterwards to recover exactly the live set.
func TestSlowGCAbortAndRestart(t *testing.T) {
	dev, l, c := newTestLog(t)
	per := l.EntriesPerChunk()

	n := 8 * per
	for i := 0; i < n; i++ {
		if err := l.RecordAlloc(c, gcAddr(i), 4096, false); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := l.RecordFree(c, gcAddr(i)); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	liveWant := n - (n+2)/3

	if err := l.startSlowGC(c); err != nil {
		t.Fatalf("startSlowGC: %v", err)
	}
	// Copy a couple of chunks into the shadow chain, then bail out.
	for i := 0; i < 2; i++ {
		if done, err := l.slowGCStep(c, 1); done || err != nil {
			t.Fatalf("step %d ended early: done=%v err=%v", i, done, err)
		}
	}
	l.abortSlowGC()
	if l.GCActive() {
		t.Fatal("GC still active after abort")
	}

	// The abandoned shadow chunks went back to the free list: a restarted
	// GC must complete and copy every live record.
	copied, err := l.SlowGC(c)
	if err != nil {
		t.Fatalf("restarted SlowGC: %v", err)
	}
	if copied != liveWant {
		t.Fatalf("restarted GC copied %d, want %d", copied, liveWant)
	}
	dev.Crash()
	_, recs := reopen(t, dev)
	if len(recs) != liveWant {
		t.Fatalf("recovered %d records after compaction, want %d", len(recs), liveWant)
	}
	for i := 0; i < n; i++ {
		_, got := recs[gcAddr(i)]
		if want := i%3 != 0; got != want {
			t.Fatalf("record %d survival = %v, want %v", i, got, want)
		}
	}
}

// gcInterleaveRun replays the deterministic append/free/GC-step schedule
// on dev and returns, for every schedule position, the XOR fingerprint of
// the live record set after that position (fingerprints[i] covers
// positions 0..i-1, so fingerprints[0] is the empty set). The schedule
// interleaves single-chunk slow-GC steps with appends and frees, so crash
// boundaries land between arbitrary copy steps of the new chain.
func gcInterleaveRun(dev *pmem.Device) []uint64 {
	l := testLog{New(dev.Mem(), 4096, testRegion, 6)}
	c := dev.NewCtx()
	per := l.EntriesPerChunk()

	live := map[pmem.PAddr]uint64{}
	fp := uint64(0)
	mix := func(a pmem.PAddr, size uint64) uint64 {
		x := uint64(a)*0x9E3779B97F4A7C15 ^ size*0xBF58476D1CE4E5B9
		x ^= x >> 29
		return x
	}
	var fps []uint64
	note := func() { fps = append(fps, fp) }
	alloc := func(i int, size uint64) {
		a := gcAddr(i)
		if l.RecordAlloc(c, a, size, false) == nil {
			fp ^= mix(a, size)
			live[a] = size
		}
		note()
	}
	free := func(i int) {
		a := gcAddr(i)
		if sz, ok := live[a]; ok && l.RecordFree(c, a) == nil {
			fp ^= mix(a, sz)
			delete(live, a)
		}
		note()
	}

	note() // position 0: empty log
	n := 10 * per
	for i := 0; i < n; i++ {
		alloc(i, 4096)
	}
	for i := 0; i < n; i += 5 {
		free(i)
	}
	_ = l.startSlowGC(c)
	note()
	next := n
	for i := 0; i < 14; i++ {
		done, err := l.slowGCStep(c, 1)
		note()
		for j := 0; j < 5; j++ {
			alloc(next, 8192)
			next++
		}
		free(next - 4)
		if done || err != nil {
			break
		}
	}
	for i := 0; i < 1000; i++ {
		done, err := l.slowGCStep(c, 1)
		note()
		if done || err != nil {
			break
		}
	}
	c.Merge() // fold flush counts so dev.FlushTotal sees the schedule
	return fps
}

// TestCrashSweepSlowGCInterleavedAppends cuts power at a sweep of flush
// counts across a schedule that interleaves incremental slow-GC steps
// with appends and frees, and verifies every recovered record set is
// exactly the live set at some schedule position: no recovered state may
// mix the old chain with a partially built new chain, lose an
// acknowledged append, or resurrect a freed record.
func TestCrashSweepSlowGCInterleavedAppends(t *testing.T) {
	ref := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	fps := gcInterleaveRun(ref)
	window := int64(ref.FlushTotal())
	if window == 0 {
		t.Fatal("schedule issued no flushes")
	}
	maxCuts := int64(150)
	if testing.Short() {
		maxCuts = 20
	}
	stride := (window + maxCuts - 1) / maxCuts
	mix := func(a pmem.PAddr, size uint64) uint64 {
		x := uint64(a)*0x9E3779B97F4A7C15 ^ size*0xBF58476D1CE4E5B9
		x ^= x >> 29
		return x
	}
	for cut := int64(1); cut <= window; cut += stride {
		dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
		dev.CrashAfterFlushes(cut)
		gcInterleaveRun(dev)
		dev.Crash()
		_, recs := reopen(t, dev)
		got := uint64(0)
		for a, r := range recs {
			got ^= mix(a, r.Size)
		}
		ok := false
		for _, want := range fps {
			if got == want {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("cut=%d/%d: recovered %d records matching no schedule position",
				cut, window, len(recs))
		}
	}
}
