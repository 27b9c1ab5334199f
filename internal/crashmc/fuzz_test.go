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

// FuzzCrashRecover drives (trace seed, crash index, tear seed) tuples
// through the model-checker oracle: generate a seeded workload trace,
// record it, cut it at one boundary (torn when a tear seed is given) and
// demand recovery satisfy every oracle invariant. The fuzzer hunts the
// boundary × tear-mask space that the exhaustive smoke enumeration
// samples with only one seed.
func FuzzCrashRecover(f *testing.F) {
	f.Add(uint64(42), uint32(0), uint64(0))
	f.Add(uint64(1), uint32(17), uint64(3))
	f.Add(uint64(2), uint32(99), uint64(0xDECAF))
	f.Add(uint64(7), uint32(1000), uint64(1))
	f.Add(uint64(0xBEEF), uint32(250), uint64(0x5EED))
	f.Fuzz(func(t *testing.T, traceSeed uint64, crashIdx uint32, tearSeed uint64) {
		rec := fuzzRecording(t, traceSeed)
		k := int(crashIdx) % rec.Boundaries()
		cfg := Config{From: k, To: k, ProbeAllocs: 32}
		if k == 0 {
			cfg.To = 1 // To <= 0 means "last boundary"; include k=0 via a 2-point range
		}
		if tearSeed != 0 {
			cfg.Torn = true
			cfg.TornSeed = tearSeed
		}
		rep := Sweep(rec, PowerCut, nil, cfg)
		if !rep.Passed() {
			path, _ := WriteRepro("", NewRepro(rep, traceSeed, tearSeed))
			t.Fatalf("seed=%#x k=%d tear=%#x repro=%s: %s", traceSeed, k, tearSeed, path, rep)
		}
	})
}
