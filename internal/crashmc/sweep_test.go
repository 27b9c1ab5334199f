package crashmc

import (
	"testing"
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

// variants are the targets the sweep family runs on.
var variants = []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC"}

// TestCrashSweepVariants: the sweep trace on each NVAlloc variant, every
// flush boundary clean and torn against the shared oracle and a walk of
// the recovered collection for an object listed twice, with cache-image
// and flip cuts at a stride.
func TestCrashSweepVariants(t *testing.T) {
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkFamily(t, "sweep", name, partSweep|partCache|partFlip)
		})
	}
}

// TestCrashSweepHandlesBookkeeping: four handles publish and retract
// large extents through the one bookkeeping log, under the smoke slow-GC
// threshold, and every boundary, clean and torn, must recover to the
// oracle.
func TestCrashSweepHandlesBookkeeping(t *testing.T) {
	checkFamily(t, "handles", "NVAlloc-LOG", partAll)
}

// TestCrashSweepShards: every boundary of a shard-heavy workload must
// recover with acknowledged publications surviving as ordinary extents,
// leases dissolved, and allocation overlap-free.
func TestCrashSweepShards(t *testing.T) { checkFamily(t, "shards", "NVAlloc-LOG", partAll) }

// TestDoubleCrashDuringRecovery: the sweep trace's image two thirds into
// its journal, on each variant, with power cut again after every flush its
// recovery issues; the second recovery must converge to the oracle of the
// first boundary (the paper's recovery flag).
func TestDoubleCrashDuringRecovery(t *testing.T) {
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkFamily(t, "sweep", name, partRecovery)
		})
	}
}

// TestRemoteFreeCrashMidDrainRecoversPrefix: thread 1 frees thread 0's
// blocks cross-arena (buffered, batch-drained), and at every boundary
// inside the drain window the applied frees must form a prefix of the
// acknowledged free order.
func TestRemoteFreeCrashMidDrainRecoversPrefix(t *testing.T) {
	checkFamily(t, "remote-free-prefix", "NVAlloc-LOG", partAll)
}
