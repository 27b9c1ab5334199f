package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/walog"
)

var allConfigs = []Config{PMDK, NvmMalloc, PAllocator, Makalu, Ralloc}

func newBaseHeap(t *testing.T, cfg Config) (*pmem.Device, *Heap) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
	h, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, h
}

func TestAllBaselinesBasicOps(t *testing.T) {
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			dev, h := newBaseHeap(t, cfg)
			th := h.NewThread()
			defer th.Close()
			seen := map[pmem.PAddr]bool{}
			var ptrs []pmem.PAddr
			for i := 0; i < 3000; i++ {
				size := uint64(8 + i%900)
				p, err := th.Malloc(size)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if seen[p] {
					t.Fatalf("address %#x handed out twice", p)
				}
				seen[p] = true
				dev.WriteU64(p, uint64(p))
				ptrs = append(ptrs, p)
			}
			for _, p := range ptrs {
				if dev.ReadU64(p) != uint64(p) {
					t.Fatalf("corruption at %#x", p)
				}
				if err := th.Free(p); err != nil {
					t.Fatal(err)
				}
			}
			// Large path.
			lp, err := th.Malloc(256 << 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(lp); err != nil {
				t.Fatal(err)
			}
			if err := th.Free(pmem.Null); err == nil {
				t.Fatal("null free must error")
			}
			if _, err := th.Malloc(0); err == nil {
				t.Fatal("zero malloc must error")
			}
		})
	}
}

func TestAllBaselinesRandomizedStress(t *testing.T) {
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			dev, h := newBaseHeap(t, cfg)
			th := h.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(9))
			type obj struct {
				p   pmem.PAddr
				tag uint64
			}
			var live []obj
			for op := 0; op < 10000; op++ {
				if len(live) == 0 || rng.Intn(100) < 55 {
					size := uint64(rng.Intn(800) + 8)
					if rng.Intn(60) == 0 {
						size = uint64(rng.Intn(100)+17) << 10
					}
					p, err := th.Malloc(size)
					if err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					tag := rng.Uint64()
					dev.WriteU64(p, tag)
					live = append(live, obj{p, tag})
				} else {
					i := rng.Intn(len(live))
					if dev.ReadU64(live[i].p) != live[i].tag {
						t.Fatalf("op %d: corruption at %#x", op, live[i].p)
					}
					if err := th.Free(live[i].p); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		})
	}
}

func TestAllBaselinesMultithreaded(t *testing.T) {
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			dev, h := newBaseHeap(t, cfg)
			ck := alloc.NewChecker(h)
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					th := ck.NewThread()
					defer th.Close()
					rng := rand.New(rand.NewSource(seed))
					var mine []pmem.PAddr
					for op := 0; op < 2000; op++ {
						if len(mine) == 0 || rng.Intn(100) < 60 {
							p, err := th.Malloc(uint64(rng.Intn(300) + 8))
							if err != nil {
								errs <- err
								return
							}
							dev.WriteU64(p, uint64(p)^0xAA)
							mine = append(mine, p)
						} else {
							i := rng.Intn(len(mine))
							if dev.ReadU64(mine[i]) != uint64(mine[i])^0xAA {
								errs <- fmt.Errorf("corruption at %#x", mine[i])
								return
							}
							if err := th.Free(mine[i]); err != nil {
								errs <- err
								return
							}
							mine[i] = mine[len(mine)-1]
							mine = mine[:len(mine)-1]
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if verrs := ck.Errors(); len(verrs) != 0 {
				t.Fatalf("invariant violations: %v", verrs[0])
			}
		})
	}
}

func TestBaselineShutdownRecovery(t *testing.T) {
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			dev, h := newBaseHeap(t, cfg)
			th := h.NewThread()
			p, err := alloc.MallocTo(th, h.RootSlot(0), 128)
			if err != nil {
				t.Fatal(err)
			}
			dev.WriteU64(p, 0xFEED)
			th.Ctx().Flush(pmem.CatOther, p, 8)
			th.Close()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			h2, ns, err := Open(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ns <= 0 {
				t.Fatal("recovery time not reported")
			}
			if dev.ReadU64(p) != 0xFEED {
				t.Fatal("object lost across shutdown")
			}
			th2 := h2.NewThread()
			defer th2.Close()
			// Recovered block must not be handed out again.
			for i := 0; i < 500; i++ {
				q, err := th2.Malloc(128)
				if err != nil {
					t.Fatal(err)
				}
				if q == p {
					t.Fatal("live block reissued after recovery")
				}
			}
			if err := th2.Free(p); err != nil {
				t.Fatalf("recovered block not freeable: %v", err)
			}
		})
	}
}

func TestBaselineCrashRecovery(t *testing.T) {
	// Strong allocators recover published objects after a hard crash; GC
	// allocators reclaim unreachable ones.
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			dev, h := newBaseHeap(t, cfg)
			th := h.NewThread()
			kept, err := alloc.MallocTo(th, h.RootSlot(0), 256)
			if err != nil {
				t.Fatal(err)
			}
			dev.WriteU64(kept, 0xCAFE)
			th.Ctx().Flush(pmem.CatOther, kept, 8)
			for i := 0; i < 200; i++ {
				if _, err := th.Malloc(256); err != nil {
					t.Fatal(err)
				}
			}
			th.Ctx().Merge()
			dev.Crash() // no Close
			h2, _, err := Open(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dev.ReadU64(kept) != 0xCAFE {
				t.Fatal("published object lost")
			}
			th2 := h2.NewThread()
			defer th2.Close()
			if err := th2.Free(kept); err != nil {
				t.Fatalf("published object not allocated after recovery: %v", err)
			}
		})
	}
}

func TestRecoveryCostOrdering(t *testing.T) {
	// Figure 18's ordering: nvm_malloc < PMDK << Ralloc < Makalu.
	cost := map[string]int64{}
	for _, cfg := range []Config{NvmMalloc, PMDK, Ralloc, Makalu} {
		dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
		h, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		// A linked list of nodes so GC has something to chase.
		var prev pmem.PAddr
		for i := 0; i < 3000; i++ {
			p, err := th.Malloc(96)
			if err != nil {
				t.Fatal(err)
			}
			dev.WriteU64(p, uint64(prev))
			th.Ctx().Flush(pmem.CatOther, p, 8)
			prev = p
		}
		c := th.Ctx()
		c.PersistU64(pmem.CatOther, h.RootSlot(0), uint64(prev))
		c.Merge()
		dev.Crash()
		_, ns, err := Open(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cost[cfg.Name] = ns
	}
	if !(cost["nvm_malloc"] < cost["PMDK"] && cost["PMDK"] < cost["Ralloc"] && cost["Ralloc"] < cost["Makalu"]) {
		t.Fatalf("recovery cost ordering wrong: %v", cost)
	}
}

func TestBitmapBaselinesReflushHeavily(t *testing.T) {
	// Figure 1(a): PMDK / nvm_malloc / PAllocator reflush on 40-99%+ of
	// their flushes for back-to-back small allocations.
	for _, cfg := range []Config{PMDK, NvmMalloc, PAllocator} {
		dev := pmem.New(pmem.Config{Size: 128 << 20})
		h, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		for i := 0; i < 3000; i++ {
			if _, err := th.Malloc(64); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		st := dev.Stats()
		if r := st.ReflushRatio(); r < 0.4 {
			t.Fatalf("%s reflush ratio %.2f, want >= 0.4", cfg.Name, r)
		}
	}
}

func TestGCBaselinesFlushProfile(t *testing.T) {
	// Makalu flushes head+link per op; Ralloc only on free; both far more
	// than nothing.
	flushes := func(cfg Config) uint64 {
		dev := pmem.New(pmem.Config{Size: 128 << 20})
		h, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		var ps []pmem.PAddr
		for i := 0; i < 1000; i++ {
			p, _ := th.Malloc(64)
			ps = append(ps, p)
		}
		for _, p := range ps {
			_ = th.Free(p)
		}
		th.Close()
		return dev.Stats().Flushes
	}
	mk, rl := flushes(Makalu), flushes(Ralloc)
	if mk <= rl {
		t.Fatalf("Makalu should flush more than Ralloc: %d vs %d", mk, rl)
	}
	if rl < 900 {
		t.Fatalf("Ralloc must flush links on free: %d", rl)
	}
}

func TestPerThreadArenasDoNotContend(t *testing.T) {
	dev, h := newBaseHeap(t, PAllocator)
	a := h.NewThread()
	b := h.NewThread()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 500; i++ {
		if _, err := a.Malloc(64); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	if a.(*Thread).ar == b.(*Thread).ar {
		t.Fatal("PAllocator threads must own private arenas")
	}
	_ = dev
}

// TestArenasDealThreads: Config.Arenas is the number of shared arenas, 0
// a private one per thread. PMDK's threads all share its one arena;
// nvm_malloc, Makalu and Ralloc deal threads over 16, least loaded first;
// every PAllocator thread gets an arena of its own.
func TestArenasDealThreads(t *testing.T) {
	want := map[string]int{"PMDK": 1, "nvm_malloc": 16, "PAllocator": 0, "Makalu": 16, "Ralloc": 16}
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			if cfg.Arenas != want[cfg.Name] {
				t.Fatalf("Arenas %d, want %d", cfg.Arenas, want[cfg.Name])
			}
			_, h := newBaseHeap(t, cfg)
			const n = 40
			var ths []*Thread
			load := map[*barena]int{}
			for i := 0; i < n; i++ {
				th := h.NewThread().(*Thread)
				ths = append(ths, th)
				load[th.ar]++
			}
			if cfg.Arenas == 0 {
				if len(load) != n || len(h.arenas) != n {
					t.Fatalf("%d threads on %d arenas (%d in the heap), want one private arena each", n, len(load), len(h.arenas))
				}
				return
			}
			if len(h.arenas) != cfg.Arenas || len(load) != min(n, cfg.Arenas) {
				t.Fatalf("%d threads on %d of %d arenas, want all %d used", n, len(load), len(h.arenas), cfg.Arenas)
			}
			lo, hi := n, 0
			for _, a := range h.arenas {
				lo, hi = min(lo, a.threads), max(hi, a.threads)
			}
			if hi-lo > 1 {
				t.Fatalf("arena loads span %d..%d: threads are not dealt least loaded first", lo, hi)
			}
			// Emptied, the first thread's arena is the least loaded: the
			// next thread goes there.
			emptied := ths[0].ar
			for _, th := range ths {
				if th.ar == emptied {
					th.Close()
				}
			}
			if got := h.NewThread().(*Thread).ar; got != emptied {
				t.Fatalf("a new thread went to an arena with %d threads, not the emptied one", got.threads-1)
			}
		})
	}
}

func TestFreeFromAndUsedPeak(t *testing.T) {
	dev, h := newBaseHeap(t, NvmMalloc)
	th := h.NewThread()
	defer th.Close()
	u0 := h.Used()
	p, err := alloc.MallocTo(th, h.RootSlot(1), 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if h.Used() <= u0 || h.Peak() < h.Used() {
		t.Fatal("usage accounting wrong")
	}
	if err := alloc.FreeFrom(th, h.RootSlot(1)); err != nil {
		t.Fatal(err)
	}
	if dev.ReadU64(h.RootSlot(1)) != 0 {
		t.Fatal("slot not cleared")
	}
	_ = p
	h.ResetPeak()
	if h.Peak() != h.Used() {
		t.Fatal("ResetPeak wrong")
	}
}

// TestNewOverOldHeapForgetsIt: New on a device that holds a crashed
// nvm_malloc heap formats a heap that holds none of it. The old heap's
// slabs are recorded in the header tables at the head of its chunks, and
// Open scans every chunk's table up to the device end: after a crash of
// the new heap none of the old blocks may come back allocated.
func TestNewOverOldHeapForgetsIt(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	old, err := New(dev, NvmMalloc)
	if err != nil {
		t.Fatal(err)
	}
	th := old.NewThread()
	var blocks []pmem.PAddr
	for i := 0; i < 300; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, p)
	}
	th.Ctx().Merge()
	dev.Crash()

	if _, err := New(dev, NvmMalloc); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	h, _, err := Open(dev, NvmMalloc)
	if err != nil {
		t.Fatal(err)
	}
	th2 := h.NewThread()
	defer th2.Close()
	back := 0
	for _, p := range blocks {
		if th2.Free(p) == nil {
			back++
		}
	}
	if back > 0 {
		t.Errorf("%d of the old heap's %d blocks are allocated in the new one", back, len(blocks))
	}
}

// TestOpenRefusesOtherFormatVersion: an intact superblock of another
// format version is refused by name. Version 0 is an image from before
// the version word, whose rings log publishes as op codes replay drops.
func TestOpenRefusesOtherFormatVersion(t *testing.T) {
	dev, h := newBaseHeap(t, NvmMalloc)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(superBase+sbVersion, 0)
	dev.WriteU64(superBase+sbChecksum, uint64(superCRC(dev)))
	_, _, err := Open(dev, NvmMalloc)
	var fe *pmem.FormatError
	if !errors.As(err, &fe) || fe.Version != 0 || fe.Component != "baseline" {
		t.Fatalf("Open of a version 0 image: %v, want a *pmem.FormatError naming version 0", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 0") || !strings.Contains(msg, fmt.Sprintf("version %d", superVersion)) {
		t.Fatalf("%q names neither the version found nor the one wanted", msg)
	}
}

// TestNewRefusesUnimplementedPolicies: a record the engine has no small
// path for is refused, not run as the nearest one.
func TestNewRefusesUnimplementedPolicies(t *testing.T) {
	bitList := Makalu
	bitList.Slots = false // a freelist whose shutdown image is bits
	longTxn := PMDK
	longTxn.LogEntries = 3 // a second commit record nothing replays
	for _, cfg := range []Config{bitList, longTxn} {
		if _, err := New(pmem.New(pmem.Config{Size: 16 << 20}), cfg); err == nil {
			t.Errorf("New accepted Slots %v, LogEntries %d", cfg.Slots, cfg.LogEntries)
		}
	}
}

// TestSlabGeometryFits: every class's blocks end inside their slab, and
// one block more would not. 8-byte blocks under 2-byte slots are the case
// a fixed number of refinement rounds leaves unconverged.
func TestSlabGeometryFits(t *testing.T) {
	for _, cfg := range Presets {
		for class := 0; class < sizeclass.NumClasses(); class++ {
			blocks, dataOff := bslabGeometry(&cfg, class)
			size := int(sizeclass.Size(class))
			if end := int(dataOff) + blocks*size; end > SlabSize {
				t.Errorf("%s class %d: %d blocks of %d B from %d end at %d, past the %d B slab", cfg.Name, class, blocks, size, dataOff, end, SlabSize)
			}
			more := (bsMetaOff + metaBytesPer(&cfg, blocks+1) + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
			if more+(blocks+1)*size <= SlabSize {
				t.Errorf("%s class %d: %d blocks of %d B leave room for another", cfg.Name, class, blocks, size)
			}
		}
	}
}

func TestOpenUnformattedDevice(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	if _, _, err := Open(dev, PMDK); err == nil {
		t.Fatal("expected error for unformatted device")
	}
}

// TestUsedCountsRingsInService: a baseline counts its metadata by the rule
// NVAlloc's heaps use: the superblock bytes from format, a WAL ring from
// its first append, and the same count after a clean reopen (which
// instantiates the arenas of a per-thread model only as threads come).
func TestUsedCountsRingsInService(t *testing.T) {
	ring := uint64(walog.RegionSize(walEntriesPerArena, 1))
	for _, cfg := range allConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			dev, h := newBaseHeap(t, cfg)
			if h.Used() != 8192 {
				t.Fatalf("fresh heap: Used %d, want the 8192 superblock bytes", h.Used())
			}
			th := h.NewThread()
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			rings := uint64(0)
			for i := range h.ringInService {
				if h.ringInService[i].Load() {
					rings++
				}
			}
			wantRings := uint64(0) // a style that logs nothing appends to no ring
			if cfg.LogEntries > 0 {
				wantRings = 1
			}
			if rings != wantRings {
				t.Fatalf("%d rings in service after one malloc, want %d", rings, wantRings)
			}
			// The in-place bookkeeping's header table heads the one chunk.
			if want := 8192 + rings*ring + h.book.DataOffset() + SlabSize; h.Used() != want {
				t.Fatalf("Used %d after one malloc, want the superblock, %d rings, a chunk header and a slab = %d", h.Used(), rings, want)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
			th.Close()
			used := h.Used()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			h2, _, err := Open(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Arenas > 0 && h2.Used() != used {
				t.Errorf("Used %d after a clean reopen, %d before", h2.Used(), used)
			}
		})
	}
}

// cutAfterEntry is a thread whose next Publish loses power once its WAL
// entry's line is flushed: the entry is durable, the slot write is not.
type cutAfterEntry struct {
	alloc.Thread
	dev *pmem.Device
}

func (t *cutAfterEntry) Publish(slot, new, old pmem.PAddr) error {
	t.dev.CrashAfterFlushes(1)
	return t.Thread.Publish(slot, new, old)
}

// TestPublishEntryRedoesTheSlot: each WAL-bearing baseline logs a publish
// as one entry (slot, new, old) before it writes the slot. Power cut
// between the two, the slot on media still holds its old value, and
// replay must leave it holding what the entry says: the new block after
// MallocTo, Null after FreeFrom.
func TestPublishEntryRedoesTheSlot(t *testing.T) {
	for _, cfg := range []Config{PMDK, NvmMalloc, PAllocator} {
		for _, op := range []string{"MallocTo", "FreeFrom"} {
			t.Run(cfg.Name+"/"+op, func(t *testing.T) {
				dev, h := newBaseHeap(t, cfg)
				slot := h.RootSlot(0)
				th := h.NewThread()
				var before, want pmem.PAddr
				var err error
				if op == "FreeFrom" {
					if before, err = alloc.MallocTo(th, slot, 128); err != nil {
						t.Fatal(err)
					}
					err = alloc.FreeFrom(&cutAfterEntry{th, dev}, slot)
				} else {
					want, err = alloc.MallocTo(&cutAfterEntry{th, dev}, slot, 128)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !dev.Crashed() {
					t.Fatal("the publish flushed nothing after its entry: the cut did not fall between entry and slot")
				}
				th.Ctx().Merge()
				dev.Crash()
				if got := pmem.PAddr(dev.ReadU64(slot)); got != before {
					t.Fatalf("slot on media holds %#x at the cut, want the old %#x", got, before)
				}
				h2, _, err := Open(dev, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := pmem.PAddr(dev.ReadU64(slot)); got != want {
					t.Fatalf("reopened slot holds %#x, want %#x as the entry says", got, want)
				}
				if want != pmem.Null {
					th2 := h2.NewThread()
					defer th2.Close()
					if err := th2.Free(want); err != nil {
						t.Fatalf("published block not allocated after recovery: %v", err)
					}
				}
			})
		}
	}
}
