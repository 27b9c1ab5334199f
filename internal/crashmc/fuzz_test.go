package crashmc

import (
	"sync"
	"testing"
)

// fuzzRecordings caches one recording per trace seed so the fuzzer pays
// the (serial) record cost once and spends its budget on distinct crash
// points. Capped: a recording pins its device images.
var fuzzRecordings = struct {
	sync.Mutex
	m map[uint64]*Recording
}{m: map[uint64]*Recording{}}

func fuzzRecording(t *testing.T, traceSeed uint64) *Recording {
	fuzzRecordings.Lock()
	defer fuzzRecordings.Unlock()
	if rec, ok := fuzzRecordings.m[traceSeed]; ok {
		return rec
	}
	names := []string{"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC"}
	tg := targetByName(t, names[traceSeed%3])
	rec, err := Record(tg, WorkloadTrace(traceSeed, 60), RecordOptions{})
	if err != nil {
		t.Fatalf("record seed %#x: %v", traceSeed, err)
	}
	if len(fuzzRecordings.m) >= 16 {
		for k := range fuzzRecordings.m {
			delete(fuzzRecordings.m, k)
			break
		}
	}
	fuzzRecordings.m[traceSeed] = rec
	return rec
}

// FuzzCrashRecover drives (trace seed, crash index, tear seed, flip seed)
// tuples through the model-checker oracle: generate a seeded workload
// trace, record it, cut it at one boundary (torn when a tear seed is
// given) and demand recovery satisfy every oracle invariant; with a flip
// seed, flip that seed's metadata bits in the boundary's image too and
// demand recovery detect them or satisfy the oracle all the same. The
// fuzzer hunts the boundary × tear-mask × flip-site space that the
// exhaustive smoke enumeration samples with only one seed.
func FuzzCrashRecover(f *testing.F) {
	f.Add(uint64(42), uint32(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint32(17), uint64(3), uint64(0))
	f.Add(uint64(2), uint32(99), uint64(0xDECAF), uint64(0))
	f.Add(uint64(7), uint32(1000), uint64(1), uint64(0))
	f.Add(uint64(0xBEEF), uint32(250), uint64(0x5EED), uint64(0))
	f.Add(uint64(42), uint32(200), uint64(0), uint64(0xF11B))
	f.Add(uint64(2), uint32(99), uint64(0xDECAF), uint64(7))
	f.Fuzz(func(t *testing.T, traceSeed uint64, crashIdx uint32, tearSeed, flipSeed uint64) {
		rec := fuzzRecording(t, traceSeed)
		k := int(crashIdx) % rec.Boundaries()
		check := func(cut Cut, cfg Config) {
			if rep := Sweep(rec, cut, []int{k}, cfg); !rep.Passed() {
				path, _ := WriteRepro("", NewRepro(rep, traceSeed, cfg.TornSeed))
				t.Fatalf("seed=%#x k=%d tear=%#x flip=%#x repro=%s: %s", traceSeed, k, tearSeed, flipSeed, path, rep)
			}
		}
		check(PowerCut, Config{TornSeed: tearSeed})
		if flipSeed != 0 {
			check(FlipCut, Config{TornSeed: flipSeed})
		}
	})
}
