package crashmc

import (
	"errors"
	"fmt"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

func targetByName(t *testing.T, name string) Target {
	t.Helper()
	for _, tg := range Targets() {
		if tg.Name == name {
			return tg
		}
	}
	t.Fatalf("no target %q", name)
	return Target{}
}

// icDuplicateCheck walks the internal collection and reports duplicate
// object addresses: the IC-specific invariant from the retired core
// sweep.
func icDuplicateCheck(h alloc.Heap, boundary int, torn bool) []string {
	ch, ok := h.(*core.Heap)
	if !ok {
		return []string{"not a core.Heap"}
	}
	var probs []string
	seen := map[pmem.PAddr]bool{}
	ch.Objects(func(o core.Object) bool {
		if seen[o.Addr] {
			probs = append(probs, fmt.Sprintf("duplicate object %#x in collection", o.Addr))
			return false
		}
		seen[o.Addr] = true
		return true
	})
	return probs
}

// TestCrashSweepVariants is the crashmc port of the retired
// TestCrashSweepLOG/GC/IC: the same workload shape, but every flush
// boundary (and its torn variant) verified instead of a sampled sweep,
// with the shared oracle replacing the hand-rolled recovery checks. IC
// additionally walks its collection for duplicates at every boundary.
func TestCrashSweepVariants(t *testing.T) {
	for _, name := range []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec, err := Record(targetByName(t, name), SweepTrace(400), RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{TornSeed: 7, CheckEvery: 100}
			if name == "NVAlloc-IC" {
				cfg.Extra = icDuplicateCheck
			}
			if testing.Short() {
				cfg.MaxBoundaries = 100
			}
			rep := Sweep(rec, PowerCut, nil, cfg)
			t.Logf("%s", rep)
			checkReport(t, rep, 400, cfg.TornSeed)
		})
	}
}

// handlesTrace drives interleaved large publications and retractions
// from four thread handles, so the bookkeeping log's records and
// tombstones come from four arenas in turn.
func handlesTrace(rounds int) Trace {
	tr := Trace{Name: "handles", Threads: 4}
	slots := alloc.NumRootSlots / 4
	pub := make([]int, 4)
	for r := 0; r < rounds; r++ {
		for w := 0; w < 4; w++ {
			base := w * slots
			if r%3 == 2 {
				tr.Ops = append(tr.Ops, Op{Kind: OpFreeFrom, Thread: w,
					Slot: base + (pub[w]+1)%slots})
				continue
			}
			tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Thread: w,
				Slot: base + pub[w]%slots, Size: uint64(32<<10 + r%8*(16<<10))})
			pub[w]++
		}
	}
	return tr
}

// TestCrashSweepHandlesBookkeeping: four handles publish and retract
// large extents through the one bookkeeping log, under the smoke slow-GC
// threshold, and every boundary, clean and torn, must recover to the
// oracle.
func TestCrashSweepHandlesBookkeeping(t *testing.T) {
	tg := TargetOpts("NVAlloc-LOG", func() core.Options {
		opts := core.DefaultOptions(core.LOG)
		opts.Arenas = 4
		opts.BlogGCThreshold = SmokeGCThreshold
		return opts
	})
	rec, err := Record(tg, handlesTrace(15), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TornSeed: 11, CheckEvery: 64}
	if testing.Short() {
		cfg.MaxBoundaries = 100
	}
	rep := Sweep(rec, PowerCut, nil, cfg)
	t.Logf("%s", rep)
	checkReport(t, rep, 15, cfg.TornSeed)
}

// shardsTrace is the shard-heavy mix from the retired extent-cache crash
// sweep: 40–480 KiB publications cycling a small slot window (with
// overwrites), so shard-pool leases and their dissolution cross
// boundaries.
func shardsTrace(n int) Trace {
	tr := Trace{Name: "shards", Threads: 1}
	slot := 0
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0, 1:
			tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Slot: slot % 16,
				Size: uint64(40<<10 + (i%12)*(36<<10))})
			slot++
		case 2:
			tr.Ops = append(tr.Ops, Op{Kind: OpFreeFrom, Slot: (slot + 5) % 16})
		}
	}
	return tr
}

// TestCrashSweepShards ports the retired core TestCrashSweepShards:
// every boundary of a shard-heavy workload must recover with
// acknowledged publications surviving as ordinary extents, leases
// dissolved, and allocation overlap-free.
func TestCrashSweepShards(t *testing.T) {
	rec, err := Record(targetByName(t, "NVAlloc-LOG"), shardsTrace(60), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TornSeed: 5, CheckEvery: 64}
	if testing.Short() {
		cfg.MaxBoundaries = 80
	}
	rep := Sweep(rec, PowerCut, nil, cfg)
	t.Logf("%s", rep)
	checkReport(t, rep, 60, cfg.TornSeed)
}

// TestDoubleCrashDuringRecovery ports the retired double-crash test to
// journal checkpoints: materialize a mid-workload crash image on a
// strict device, cut power again a few flushes into recovery itself, and
// require the second recovery to converge (the paper's recovery flag).
func TestDoubleCrashDuringRecovery(t *testing.T) {
	for _, name := range []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tg := targetByName(t, name)
			rec, err := Record(tg, SweepTrace(400), RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			k := 2 * len(rec.Journal) / 3
			cursor := pmem.NewImageCursor(rec.DeviceBytes, rec.Journal)
			cursor.Advance(k)
			for _, j := range []int64{1, 5, 25, 125} {
				scratch := pmem.New(pmem.Config{Size: rec.DeviceBytes, Strict: true})
				cursor.MaterializeInto(scratch)
				scratch.CrashAfterFlushes(j)
				if _, err := OpenGuarded(tg, scratch); err != nil {
					var pe *PanicError
					if errors.As(err, &pe) {
						t.Fatalf("j=%d: interrupted recovery panicked: %v", j, pe.Value)
					}
					// A typed failure is fine; the image is still intact.
				}
				scratch.Crash()
				h2, err := OpenGuarded(tg, scratch)
				if err != nil {
					t.Fatalf("j=%d: second recovery failed: %v", j, err)
				}
				// The twice-recovered heap must be fully functional.
				ck := alloc.NewChecker(h2)
				th := ck.NewThread()
				for i := 0; i < 64; i++ {
					if _, err := th.Malloc(uint64(64 + i%256)); err != nil {
						t.Fatalf("j=%d: alloc after double recovery: %v", j, err)
					}
				}
				th.Close()
				if errs := ck.Errors(); len(errs) != 0 {
					t.Fatalf("j=%d: invariant violations: %v", j, errs)
				}
			}
		})
	}
}

// TestRemoteFreeCrashMidDrainRecoversPrefix ports the retired core test:
// thread 1 frees thread 0's blocks cross-arena (buffered, batch-drained),
// and at every boundary inside the drain window the applied frees must
// form a prefix of the acknowledged free order. The prefix check is an
// Extra invariant, so it sees the heap before the oracle's probe
// allocations can reuse an applied free's block.
func TestRemoteFreeCrashMidDrainRecoversPrefix(t *testing.T) {
	const K = 48
	tr := Trace{Name: "remotefree", Threads: 2}
	for i := 0; i < K; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMalloc, Size: 256})
	}
	for i := 0; i < K; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpFree, Thread: 1, Ref: i})
	}
	tr.Ops = append(tr.Ops, Op{Kind: OpFlush, Thread: 1})

	rec, err := Record(targetByName(t, "NVAlloc-LOG"), tr, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]pmem.PAddr, 0, K)
	for _, or := range rec.Ops[:K] {
		if or.Err {
			t.Fatalf("setup alloc failed")
		}
		addrs = append(addrs, or.Addr)
	}
	cfg := Config{
		From: rec.Ops[K].FlushStart, To: rec.Ops[2*K].FlushEnd,
		TornSeed: 3,
		Extra: func(h alloc.Heap, boundary int, torn bool) []string {
			ch := h.(*core.Heap)
			lost := -1
			for i, a := range addrs {
				if ch.BlockAllocated(a) {
					// Block still allocated: the acknowledged free was lost.
					if lost < 0 {
						lost = i
					}
				} else if lost >= 0 {
					return []string{fmt.Sprintf(
						"free %d applied but earlier free %d lost (not a prefix)", i, lost)}
				}
			}
			return nil
		},
	}
	if testing.Short() {
		cfg.MaxBoundaries = 80
	}
	rep := Sweep(rec, PowerCut, nil, cfg)
	t.Logf("%s", rep)
	checkReport(t, rep, 0, cfg.TornSeed)
}
