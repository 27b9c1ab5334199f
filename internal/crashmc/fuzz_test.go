package crashmc

import (
	"testing"
)

// FuzzCrashRecover drives (trace seed, crash index, cut seed) tuples
// through the table's rule: a family of a seeded workload trace whose
// span is the one boundary the crash index names takes a clean and a torn
// power cut there, and a flip cut once the heap exists (a cache-image cut
// is a flush into the span, which one boundary has not), with the cut
// seed seeding the torn line and the flipped bits, as TornSeed does for
// every row; recovery must satisfy every oracle invariant or detect the
// flipped bits. The fuzzer hunts the boundary × tear-mask × flip-site
// space that the table's rows sample with one seed each.
func FuzzCrashRecover(f *testing.F) {
	f.Add(uint64(42), uint32(0), uint64(0))
	f.Add(uint64(1), uint32(17), uint64(3))
	f.Add(uint64(2), uint32(99), uint64(0xDECAF))
	f.Add(uint64(7), uint32(1000), uint64(1))
	f.Add(uint64(0xBEEF), uint32(250), uint64(0x5EED))
	f.Add(uint64(42), uint32(200), uint64(0xF11B))
	f.Add(uint64(2), uint32(99), uint64(7))
	f.Fuzz(func(t *testing.T, traceSeed uint64, crashIdx uint32, cutSeed uint64) {
		names := []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC"}
		fam := Family{Name: "fuzz", Target: targetByName(t, names[traceSeed%3]), Trace: WorkloadTrace(traceSeed, 60),
			// Boundary 0, the all-zero image, is not a span: To 0 is the last.
			Span: func(rec *Recording) (int, int) {
				k := 1 + int(crashIdx)%(rec.Boundaries()-1)
				return k, k
			}}
		rep, err := fam.Run(RunOptions{Config: Config{TornSeed: cutSeed}})
		if err != nil {
			t.Fatalf("seed=%#x: %v", traceSeed, err)
		}
		for _, r := range rep.Reports() {
			t.Logf("%s", r)
			checkReport(t, r, traceSeed, cutSeed)
		}
	})
}
