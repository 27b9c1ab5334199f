package crashmc

import "testing"

// TestPublishTraceShape pins what the family's coverage argument rests
// on: the rings wrap under the publishes, a slab morphs between them, and
// the trace still has every kind of old block — own, the other arena's, an
// extent, one republished while the entry that freed it is in the ring.
func TestPublishTraceShape(t *testing.T) {
	rec, err := RecordPublish()
	if err != nil {
		t.Fatal(err)
	}
	for i, or := range rec.Ops {
		if or.Err {
			t.Fatalf("op %d (%v) failed", i, or.Op.Kind)
		}
	}
	sh := rec.PublishShape()
	t.Logf("%d ops, %d boundaries, %d inside a publish group, shape %+v",
		len(rec.Ops), rec.Boundaries(), len(rec.PublishWindows()), sh)
	if sh.CheckpointMoves < 8 {
		t.Errorf("%d checkpoint moves, want >= 8: the rings no longer wrap under the publishes", sh.CheckpointMoves)
	}
	if sh.Morphs == 0 {
		t.Error("no slab morphed")
	}
	if sh.Replaces < 100 || sh.CrossArena < 6 || sh.Republished < 50 || sh.Extents < 8 {
		t.Errorf("shape %+v: want >= 100 replaces, >= 6 cross-arena olds, >= 50 republished blocks, >= 8 extent publishes", sh)
	}
}

// TestPublishFamily enumerates every boundary of the publish trace, with
// torn variants, and holds each recovered heap to the live-set oracle on
// top of the shared one: a reservation that survives a cut publish, or a
// superseded block that survives a completed one, is a leak at the very
// boundary that made it.
func TestPublishFamily(t *testing.T) {
	rec, err := RecordPublish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Torn: true, TornSeed: 0xB17, CheckEvery: 64, Extra: LiveSetOracle(rec)}
	if testing.Short() {
		cfg.MaxBoundaries = 100
	}
	rep := Verify(rec, cfg)
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, cfg.TornSeed)
	if !testing.Short() && rep.Explored != rep.Boundaries {
		t.Errorf("coverage %d/%d, want exhaustive", rep.Explored, rep.Boundaries)
	}
}

// TestPublishRecoveryCrashes cuts power a second time after every flush of
// the recoveries that find a publish group in flight — replay completing
// or dropping the ring's last entry, freeing an extent the cut publish
// left recorded, writing the bits back, moving the checkpoint — and holds
// the second recovery to the same oracle. Every fifth such boundary here
// (consecutive ones sit in different positions of their groups, so the
// stride still visits every position); `nvbench -exp crashmc`, which CI
// gates, takes them all.
func TestPublishRecoveryCrashes(t *testing.T) {
	rec, err := RecordPublish()
	if err != nil {
		t.Fatal(err)
	}
	stride := 5
	if testing.Short() {
		stride = 60
	}
	ks := EveryNth(rec.PublishWindows(), stride)
	rep := VerifyRecoveryCrashes(rec, ks, Config{Extra: LiveSetOracle(rec)})
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, 0)
	if rep.Explored < 4*len(ks) {
		t.Errorf("%d recovery cuts over %d boundaries", rep.Explored, len(ks))
	}
}

// TestPublishCacheCuts kills the process instead of cutting power: after
// every flush of the trace's operations recovery starts from the cache
// image — every store made so far, as a page-cache-backed heap file keeps
// them — and is held to the shared and the live-set oracle. The threads of
// the trace are bound to different arenas; the oracle's frees after each
// recovery come from two threads bound afresh.
func TestPublishCacheCuts(t *testing.T) {
	rec, err := RecordPublish()
	if err != nil {
		t.Fatal(err)
	}
	ks := rec.OpFlushes()
	if testing.Short() {
		ks = EveryNth(ks, 40)
	}
	rep := VerifyCacheCuts(rec, ks, Config{Extra: LiveSetOracle(rec)})
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, 0)
	if rep.Explored != len(ks) {
		t.Errorf("%d cache-image cuts verified, want %d", rep.Explored, len(ks))
	}
}
