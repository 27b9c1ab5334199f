package crashmc

import (
	"testing"

	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// familyCase is how this package's tests run one family of the table: the
// trace and torn seeds, and how much of each kind of cut a full and a
// -short run take. `nvbench -exp crashmc`, which CI gates, takes every cut
// of every family; consecutive windows sit in different positions of their
// groups, so a stride still visits every position.
type familyCase struct {
	seed        uint64 // of Families: the smoke and fence-elision traces
	tornSeed    uint64
	full, short RunOptions
	// perWindow is how many flushes the recovery of a window must at least
	// offer the double-crash cut: fewer, and recovery no longer has the
	// write-back, the publish group or the compaction to cut into.
	perWindow int
	// opsSucceed: the coverage argument needs every op of the trace to
	// have succeeded.
	opsSucceed bool
}

func sweepOf(maxBoundaries, checkEvery int) Config {
	return Config{MaxBoundaries: maxBoundaries, CheckEvery: checkEvery}
}

var familyCases = map[string]familyCase{
	"smoke": {seed: 42, tornSeed: 0xDECAF,
		full:  RunOptions{Config: sweepOf(0, 64), Flushes: Every(8), Flips: Every(8)},
		short: RunOptions{Config: sweepOf(120, 16), Flushes: Every(40), Flips: Every(40)}},
	"fence-elision": {seed: 7, tornSeed: 0xDECAF,
		full:  RunOptions{Config: sweepOf(0, 64), Flushes: Every(8), Flips: Every(8)},
		short: RunOptions{Config: sweepOf(150, 16), Flushes: Every(40), Flips: Every(40)}},
	// Four flushes of a recovery from a full, unwritten ring are the two
	// run-state words and the two rings' checkpoint words; the rest are
	// lines it writes back (one per slab a ring's entries touched).
	"write-back": {tornSeed: 0xB17, perWindow: 7,
		full:  RunOptions{Config: sweepOf(0, 64), Flips: Every(8)},
		short: RunOptions{Config: sweepOf(150, 64), Windows: Last(2), Flushes: Every(40), Flips: Every(40)}},
	"publish": {tornSeed: 0xB17, perWindow: 4, opsSucceed: true,
		full:  RunOptions{Config: sweepOf(0, 64), Windows: Every(5), Flips: Every(8)},
		short: RunOptions{Config: sweepOf(100, 64), Windows: Every(60), Flushes: Every(40), Flips: Every(40)}},
	"compaction": {tornSeed: 0xB17, perWindow: 30, opsSucceed: true,
		full:  RunOptions{Config: sweepOf(0, 64), Windows: Every(16), Flushes: Every(8), Flips: Every(8)},
		short: RunOptions{Config: sweepOf(100, 64), Windows: Every(80), Flushes: Every(40), Flips: Every(40)}},
	"morph": {tornSeed: 13,
		full:  RunOptions{Config: sweepOf(0, 16)},
		short: RunOptions{Config: sweepOf(30, 16), Flushes: Every(3), Flips: Every(3)}},
	// The family strides by itself; every third of its boundaries is
	// enough flipped images to count on.
	"deep": {tornSeed: 0x7047,
		full:  RunOptions{Config: sweepOf(0, 64), Flips: Every(3)},
		short: RunOptions{Config: sweepOf(16, 64), Flips: Every(40)}},
	// The raced families take every boundary of the round-robin schedule
	// and of the variant schedules they run: six of them, as CI's
	// smoke budget, or two.
	"shard-append-gc":    racedCase,
	"remote-free-drain":  racedCase,
	"extent-refill-free": racedCase,
}

var racedCase = familyCase{seed: 42, tornSeed: 0xDECAF,
	full:  RunOptions{Config: sweepOf(0, 64), MaxSchedules: 6},
	short: RunOptions{Config: sweepOf(0, 64), MaxSchedules: 2}}

// familyOf returns the table's entry for name on target, with the seed the
// family's test case uses.
func familyOf(t *testing.T, name, target string) Family {
	t.Helper()
	for _, f := range Families(familyCases[name].seed) {
		if f.Name == name && f.Target.Name == target {
			return f
		}
	}
	t.Fatalf("the table has no family %q on %q", name, target)
	return Family{}
}

// The parts of a family run a test can assert.
const (
	partShape = 1 << iota
	partSweep
	partRecovery
	partCache
	partFlip
	partAll = partShape | partSweep | partRecovery | partCache | partFlip
)

// none thins a kind of cut away.
func none([]int) []int { return nil }

// checkFamily is the one table-driven family test: it runs the table's
// (family, target) entry as its case says and holds the parts of the run
// named by parts to what the family promises. A part not named is not
// taken either — one boundary of the power-cut sweep, no windows, no
// flushes, no flips — so a test costs what it asserts.
func checkFamily(t *testing.T, name, target string, parts int) *FamilyReport {
	t.Helper()
	f, fc := familyOf(t, name, target), familyCases[name]
	opt := fc.full
	if testing.Short() {
		opt = fc.short
	}
	opt.TornSeed = fc.tornSeed
	if parts&partSweep == 0 {
		opt.MaxBoundaries = 1
	}
	if parts&partRecovery == 0 {
		opt.Windows = none
	}
	if parts&partCache == 0 {
		opt.Flushes = none
	}
	if parts&partFlip == 0 {
		opt.Flips = none
	}
	rep, err := f.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if parts&partShape != 0 {
		t.Logf("%d ops, %d boundaries, shape %+v", rep.Ops, rep.Sweep.Boundaries, rep.Shape)
		for _, f := range rep.ShapeFailures() {
			t.Errorf("trace shape: %s", f)
		}
		if fc.opsSucceed && rep.FailedOps > 0 {
			t.Errorf("%d of the trace's %d ops failed", rep.FailedOps, rep.Ops)
		}
	}
	if parts&partSweep != 0 {
		t.Logf("%s", rep.Sweep)
		checkReport(t, rep.Sweep, fc.seed, fc.tornSeed)
		if !testing.Short() && rep.Sweep.Explored != rep.Sweep.Boundaries {
			t.Errorf("coverage %d/%d, want exhaustive", rep.Sweep.Explored, rep.Sweep.Boundaries)
		}
	}
	if parts&partRecovery != 0 && rep.Recovery != nil {
		t.Logf("%s", rep.Recovery)
		checkReport(t, rep.Recovery, fc.seed, 0)
		if rep.Windows == 0 || rep.Recovery.Explored < fc.perWindow*rep.Windows {
			t.Errorf("%d recovery cuts over %d windows, want >= %d in each", rep.Recovery.Explored, rep.Windows, fc.perWindow)
		}
	}
	if parts&partCache != 0 {
		t.Logf("%s", rep.Cache)
		checkReport(t, rep.Cache, fc.seed, 0)
		if rep.Cache.Explored == 0 || rep.Cache.Explored != rep.Cache.Boundaries {
			t.Errorf("%d cache-image cuts verified, want %d", rep.Cache.Explored, rep.Cache.Boundaries)
		}
	}
	if parts&partFlip != 0 {
		t.Logf("%s", rep.Flip)
		checkReport(t, rep.Flip, fc.seed, fc.tornSeed)
		if rep.Flip.Explored == 0 || rep.Flip.Explored != rep.Flip.Boundaries {
			t.Errorf("%d flip cuts verified, want %d", rep.Flip.Explored, rep.Flip.Boundaries)
		}
	}
	return rep
}

// The tests below are checkFamily under the names the suite has always
// listed — the floor of tests each change to this repository is held to
// names them one by one — each taking and asserting the part of a run its
// name says.

// TestSmokeTraceAllTargets: the smoke trace on every allocator, every
// persistence boundary clean and torn, a cache-image cut at every eighth
// flush and a flip cut at every eighth boundary. Short mode samples
// boundaries instead.
func TestSmokeTraceAllTargets(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			t.Parallel()
			checkFamily(t, "smoke", tg.Name, partAll)
		})
	}
}

// TestFenceElisionFamilyLOG: every boundary of the fence-elision trace on
// the LOG variant — the only variant whose hot paths merge the WAL-entry
// fence with the bitmap-commit fence — and, as the family's shape, both
// at-risk line classes explored clean and torn.
func TestFenceElisionFamilyLOG(t *testing.T) { checkFamily(t, "fence-elision", "NVAlloc-LOG", partAll) }

// The write-back family: the trace wraps the minimum ring many times,
// morphs a slab, and has arena 0 format a base arena 1 released (shape);
// every boundary, inside every write-back, between its fence and the
// checkpoint word, and inside every commit group a checkpoint move lands in
// (the oracle's "published block reads free" check is what a lost bit
// trips); a second power cut after every flush of the recovery that starts
// from a full, unwritten ring; and recovery from the cache image, where the
// bits a ring covers are all present, ahead of the media, and replay runs
// over them. The family test takes the flip cuts too: metadata bits flipped
// under rings that are the only record of what they cover.
func TestWriteBackTraceShape(t *testing.T) { checkFamily(t, "write-back", "NVAlloc-LOG", partShape) }
func TestWriteBackFamily(t *testing.T) {
	checkFamily(t, "write-back", "NVAlloc-LOG", partSweep|partFlip)
}
func TestWriteBackRecoveryCrashes(t *testing.T) {
	checkFamily(t, "write-back", "NVAlloc-LOG", partRecovery)
}
func TestWriteBackCacheCuts(t *testing.T) { checkFamily(t, "write-back", "NVAlloc-LOG", partCache) }

// The publish family: the rings wrap under the publishes, a slab morphs
// between them, and the trace still has every kind of old block — own, the
// other arena's, an extent, one republished while the entry that freed it
// is in the ring (shape); every boundary against the live-set oracle on top
// of the shared one, so a reservation that survives a cut publish, or a
// superseded block that survives a completed one, is a leak at the very
// boundary that made it; a second power cut after every flush of the
// recoveries that find a publish group in flight — replay completing or
// dropping the ring's last entry, freeing an extent the cut publish left
// recorded, writing the bits back, moving the checkpoint; and the process
// killed instead, the oracle's frees after each recovery coming from two
// threads bound afresh.
func TestPublishTraceShape(t *testing.T) { checkFamily(t, "publish", "NVAlloc-LOG", partShape) }
func TestPublishFamily(t *testing.T) {
	checkFamily(t, "publish", "NVAlloc-LOG", partSweep|partFlip)
}
func TestPublishRecoveryCrashes(t *testing.T) {
	checkFamily(t, "publish", "NVAlloc-LOG", partRecovery)
}
func TestPublishCacheCuts(t *testing.T) { checkFamily(t, "publish", "NVAlloc-LOG", partCache) }

// TestCompactionTraceShape pins what the family's coverage argument rests
// on: the log is over its threshold at many boundaries, it was compacted
// at run time by both threads' frees, and a recovery from one of those
// boundaries really does compact (while one from early in the trace does
// not).
func TestCompactionTraceShape(t *testing.T) {
	checkFamily(t, "compaction", "NVAlloc-LOG", partShape)
	f := familyOf(t, "compaction", "NVAlloc-LOG")
	rec, err := Record(f.Target, f.Trace, RecordOptions{Probe: f.Probe})
	if err != nil {
		t.Fatal(err)
	}
	compacted := func(k int) bool {
		cursor := rec.newCursor()
		cursor.Advance(k)
		scratch := pmem.New(pmem.Config{Size: rec.DeviceBytes, Strict: true})
		cursor.MaterializeInto(scratch)
		h, _, err := core.Open(scratch, compactionOptions())
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		return h.Recovery().LogCompacted
	}
	ks := f.Windows(rec)
	// (The last boundaries of a window sit inside the free that compacts
	// at run time, past its alt flip: nothing is left for Open there.)
	for _, k := range []int{ks[0], ks[len(ks)/2]} {
		if !compacted(k) {
			t.Errorf("recovery at boundary %d, inside a compaction window, did not compact the log", k)
		}
	}
	if k := rec.Ops[0].FlushEnd; compacted(k) {
		t.Errorf("recovery at boundary %d, after the first op, compacted the log", k)
	}
}

// TestCompactionFamily: every boundary against the shared and the live-set
// oracle — an extent record a compaction dropped, or a tombstone it forgot,
// shows as a lost or a leaked block at the boundary that did it — the
// cache-image cut and the flip cut. TestCompactionRecoveryCrashes: a second power cut after
// every flush of recoveries that compact the log — each chunk of the new
// chain, the spare head pointer, the alt flip — the second recovery finding
// the first one's abandoned chain below the break.
func TestCompactionFamily(t *testing.T) {
	checkFamily(t, "compaction", "NVAlloc-LOG", partSweep|partCache|partFlip)
}
func TestCompactionRecoveryCrashes(t *testing.T) {
	checkFamily(t, "compaction", "NVAlloc-LOG", partRecovery)
}

// TestMorphCrashSweep: the window of the allocation that morphs a slab, on
// each NVAlloc variant. A geometry change that stops the trace from
// morphing fails the family's shape floor; it does not skip the sweep.
func TestMorphCrashSweep(t *testing.T) {
	for _, v := range []core.Variant{core.LOG, core.GC, core.IC} {
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			checkFamily(t, "morph", v.String(), partAll)
		})
	}
}

// TestConcFamiliesEnumerate: each raced family on each variant it runs on —
// real conflicts, executed variant schedules and at least half of the naive
// schedule space pruned (shape), and every boundary of every schedule run
// clean and torn with zero oracle violations.
func TestConcFamiliesEnumerate(t *testing.T) {
	for _, target := range []string{"NVAlloc-GC", "NVAlloc-LOG"} {
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			for _, tr := range racedTraces(racedCase.seed) {
				checkFamily(t, tr.Name, target, partShape|partSweep)
			}
		})
	}
}

// TestFamilyWithNothingToCut: a family whose trace stopped producing its
// event — no span beyond one boundary, no windows, no flushes — takes no
// cuts and fails its shape floor at once. An empty list is an empty sweep,
// not "every boundary of the recording".
func TestFamilyWithNothingToCut(t *testing.T) {
	f := familyOf(t, "morph", "NVAlloc-LOG")
	f.Trace = Trace{Name: "no-morph", Threads: 1, Ops: []Op{
		{Kind: OpMallocTo, Slot: 0, Size: 100}, {Kind: OpMalloc, Size: 1000}, {Kind: OpFreeFrom, Slot: 0}}}
	f.Windows = func(*Recording) []int { return nil }
	rep, err := f.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fails := rep.ShapeFailures(); len(fails) != 1 || fails[0] != "morphs = 0, the family needs >= 1" {
		t.Errorf("shape failures %q, want the morph floor", fails)
	}
	if rep.Sweep.Boundaries != 1 || rep.Sweep.Explored != 1 {
		t.Errorf("power cuts: %s, want the one boundary of an empty span", rep.Sweep)
	}
	for _, r := range []*Report{rep.Recovery, rep.Cache} {
		if r.Boundaries != 0 || r.Explored != 0 || !r.Passed() {
			t.Errorf("%s, want an empty sweep", r)
		}
	}
}
