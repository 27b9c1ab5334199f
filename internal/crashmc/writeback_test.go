package crashmc

import "testing"

// TestWriteBackTraceShape pins what the family's coverage argument rests
// on: the trace wraps the minimum ring many times, morphs a slab, and has
// arena 0 format a base arena 1 released, in the same class.
func TestWriteBackTraceShape(t *testing.T) {
	rec, err := RecordWriteBack()
	if err != nil {
		t.Fatal(err)
	}
	sh := rec.WriteBackShape()
	t.Logf("%d ops, %d boundaries, shape %+v", len(rec.Ops), rec.Boundaries(), sh)
	if sh.CheckpointMoves < 8 {
		t.Errorf("%d checkpoint moves, want >= 8: the rings no longer wrap several times", sh.CheckpointMoves)
	}
	if sh.Morphs == 0 {
		t.Error("no slab morphed")
	}
	if sh.ForeignReformats == 0 {
		t.Error("no slab base released by one arena was formatted by the other in the same class")
	}
}

// TestWriteBackFamily enumerates every boundary of the write-back trace,
// with torn variants, on the minimum ring: inside every write-back, between
// its fence and the checkpoint word, and inside every commit group a
// checkpoint move lands in. The oracle's "published block reads free"
// check is what a lost bit trips.
func TestWriteBackFamily(t *testing.T) {
	rec, err := RecordWriteBack()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Torn: true, TornSeed: 0xB17, CheckEvery: 64}
	if testing.Short() {
		cfg.MaxBoundaries = 150
	}
	rep := Verify(rec, cfg)
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, cfg.TornSeed)
	if !testing.Short() && rep.Explored != rep.Boundaries {
		t.Errorf("coverage %d/%d, want exhaustive", rep.Explored, rep.Boundaries)
	}
}

// TestWriteBackRecoveryCrashes cuts power a second time after every flush
// of the recovery that starts from a full, unwritten ring — inside the
// replay's own write-back and between it and each ring's checkpoint word —
// and holds the second recovery to the full oracle.
func TestWriteBackRecoveryCrashes(t *testing.T) {
	rec, err := RecordWriteBack()
	if err != nil {
		t.Fatal(err)
	}
	ks := rec.WriteBackStarts()
	if testing.Short() && len(ks) > 2 {
		ks = ks[len(ks)-2:]
	}
	rep := VerifyRecoveryCrashes(rec, ks, Config{})
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, 0)
	// Four flushes of such a recovery are the two run-state words and the
	// two rings' checkpoint words; the rest are lines it writes back (one
	// per slab a ring's entries touched, now that bitmaps are sequential).
	if rep.Explored < 7*len(ks) {
		t.Errorf("%d recovery cuts over %d boundaries: recovery no longer has a write-back to cut into", rep.Explored, len(ks))
	}
}

// TestWriteBackCacheCuts recovers from the cache image after every flush
// of the trace's operations: the bits a ring covers are then all present,
// ahead of the media, and replay runs over them.
func TestWriteBackCacheCuts(t *testing.T) {
	rec, err := RecordWriteBack()
	if err != nil {
		t.Fatal(err)
	}
	ks := rec.OpFlushes()
	if testing.Short() {
		ks = EveryNth(ks, 40)
	}
	rep := VerifyCacheCuts(rec, ks, Config{})
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, 0)
	if rep.Explored != len(ks) {
		t.Errorf("%d cache-image cuts verified, want %d", rep.Explored, len(ks))
	}
}
