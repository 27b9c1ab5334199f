package crashmc

import (
	"testing"

	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// TestCompactionTraceShape pins what the family's coverage argument rests
// on: the log is over its threshold at many boundaries, it was compacted
// at run time by both threads' frees, and a recovery from one of those
// boundaries really does compact (while one from early in the trace does
// not).
func TestCompactionTraceShape(t *testing.T) {
	rec, err := RecordCompaction()
	if err != nil {
		t.Fatal(err)
	}
	for i, or := range rec.Ops {
		if or.Err {
			t.Fatalf("op %d (%v) failed", i, or.Op.Kind)
		}
	}
	sh := rec.CompactionShape()
	t.Logf("%d ops, %d boundaries, shape %+v", len(rec.Ops), rec.Boundaries(), sh)
	if sh.OverThreshold < 100 || sh.RuntimeCompactions < 2 {
		t.Errorf("shape %+v: want >= 100 boundaries over the threshold and >= 2 compactions at run time", sh)
	}

	compacted := func(k int) int {
		cursor := rec.newCursor()
		cursor.Advance(k)
		scratch := pmem.New(pmem.Config{Size: rec.DeviceBytes, Strict: true})
		cursor.MaterializeInto(scratch)
		h, _, err := core.Open(scratch, compactionOptions())
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		return h.Recovery().ShardsCompacted
	}
	ks := rec.CompactionWindows()
	// (The last boundaries of a window sit inside the free that compacts
	// at run time, past its alt flip: nothing is left for Open there.)
	for _, k := range []int{ks[0], ks[len(ks)/2]} {
		if n := compacted(k); n != 1 {
			t.Errorf("recovery at boundary %d, inside a compaction window, compacted %d shards", k, n)
		}
	}
	if k := rec.Ops[0].FlushEnd; compacted(k) != 0 {
		t.Errorf("recovery at boundary %d, after the first op, compacted the log", k)
	}
}

// TestCompactionFamily enumerates every boundary of the compaction trace,
// with torn variants, against the shared oracle and the live-set oracle:
// an extent record a compaction dropped, or a tombstone it forgot, shows
// as a lost or a leaked block at the boundary that did it.
func TestCompactionFamily(t *testing.T) {
	rec, err := RecordCompaction()
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

// TestCompactionRecoveryCrashes cuts power a second time after every flush
// of recoveries that compact the log — each chunk of the new chain, the
// spare head pointer, the alt flip — and holds the second recovery, which
// finds the first one's abandoned chain below the break, to the same
// oracles. A stride of the windows here; `nvbench -exp crashmc`, which CI
// gates, takes every boundary.
func TestCompactionRecoveryCrashes(t *testing.T) {
	rec, err := RecordCompaction()
	if err != nil {
		t.Fatal(err)
	}
	stride := 16
	if testing.Short() {
		stride = 80
	}
	all := rec.CompactionWindows()
	var ks []int
	for i := 0; i < len(all); i += stride {
		ks = append(ks, all[i])
	}
	rep := VerifyRecoveryCrashes(rec, ks, Config{Extra: LiveSetOracle(rec)})
	t.Logf("%s", rep)
	checkReport(t, rec, rep, 0, 0)
	if rep.Explored < 30*len(ks) {
		t.Errorf("%d recovery cuts over %d boundaries: recovery no longer has a compaction to cut into", rep.Explored, len(ks))
	}
}
