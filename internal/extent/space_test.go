package extent

import (
	"fmt"
	"math/rand"
	"testing"

	"nvalloc/internal/pmem"
)

// TestPeakCoversUsed plays seeded random sequences of every verb — carves
// on the slab caches, the shard pools and the global pool, records,
// tombstones, releases, undone carves, cache flushes and decay — and checks
// after every step that Peak is at least Used: every rise of Used is seen,
// including the ones where idle cache or lease space is handed out, or
// taken back reclaimed. It also checks the decay list after every step
// (checkDecayList).
func TestPeakCoversUsed(t *testing.T) {
	type held struct {
		addr     pmem.PAddr
		arena    int
		slab     bool
		recorded bool
	}
	for _, tiers := range []Tiers{{Caches: 2, SlabSize: slabSize, Pools: 2}, {}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("caches=%d/pools=%d/seed=%d", tiers.Caches, tiers.Pools, seed), func(t *testing.T) {
				_, a, c := newTiered(t, 48<<20, tiers)
				rng := rand.New(rand.NewSource(seed))
				var hs []held
				check := func(step int, op string) {
					t.Helper()
					if u, p := a.Used(), a.Peak(); p < u {
						t.Fatalf("step %d (%s): Peak %d < Used %d", step, op, p, u)
					}
					if err := checkDecayList(a.pool); err != nil {
						t.Fatalf("step %d (%s): %v", step, op, err)
					}
				}
				carve := func(arena int, slab bool) (pmem.PAddr, uint64, bool) {
					size := uint64(slabSize)
					if !slab {
						size = []uint64{8 << 10, 48 << 10, MaxShardAlloc, 600 << 10}[rng.Intn(4)]
					}
					p, err := a.Carve(c, arena, size, slab)
					return p, size, err == nil
				}
				for step := 0; step < 1500; step++ {
					arena := rng.Intn(2)
					var op string
					switch r := rng.Intn(100); {
					case r < 35:
						op = "carve"
						slab := rng.Intn(2) == 0
						if p, _, ok := carve(arena, slab); ok {
							hs = append(hs, held{addr: p, arena: arena, slab: slab})
						}
					case r < 42:
						op = "carve and uncarve"
						slab := rng.Intn(2) == 0
						if p, _, ok := carve(arena, slab); ok {
							if err := a.Uncarve(c, arena, p, slab); err != nil {
								t.Fatal(err)
							}
						}
					case r < 65 && len(hs) > 0:
						op = "record"
						i := rng.Intn(len(hs))
						if !hs[i].recorded {
							if err := a.Record(c, hs[i].arena, hs[i].addr, hs[i].slab); err != nil {
								t.Fatal(err)
							}
							hs[i].recorded = true
						}
					case r < 95 && len(hs) > 0:
						op = "release"
						i := rng.Intn(len(hs))
						h := hs[i]
						if h.recorded {
							op = "tombstone and release"
							if err := a.Tombstone(c, []pmem.PAddr{h.addr}); err != nil {
								t.Fatal(err)
							}
							check(step, "tombstone")
						}
						if err := a.Release(c, h.arena, h.addr, h.slab); err != nil {
							t.Fatal(err)
						}
						hs[i] = hs[len(hs)-1]
						hs = hs[:len(hs)-1]
					case r < 97:
						op = "flush caches"
						a.flushCaches(c, -1)
					default:
						op = "decay epoch"
						c.Charge(pmem.CatOther, DecayEpochNS)
						a.pool.lock(c)
						a.pool.maybeDecay(c)
						a.pool.unlock(c)
					}
					check(step, op)
				}
			})
		}
	}
}

// checkDecayList reports where the decay list is not exactly the reclaimed
// extents, each once, with reclaimedBytes its bytes.
func checkDecayList(p *Pool) error {
	on := make(map[*VEH]bool)
	var bytes uint64
	prev := &p.decay
	for v := p.decay.next; v != &p.decay; prev, v = v, v.next {
		if on[v] {
			return fmt.Errorf("extent %#x is on the decay list twice", v.Addr)
		}
		if v.prev != prev {
			return fmt.Errorf("extent %#x on the decay list does not link back to its predecessor", v.Addr)
		}
		on[v] = true
		bytes += v.Size
	}
	if p.decay.prev != prev {
		return fmt.Errorf("the decay list's sentinel does not link back to its last extent")
	}
	var err error
	reclaimed := 0
	p.byAddr.Ascend(func(_ pmem.PAddr, v *VEH) bool {
		if (v.State == Reclaimed) != on[v] {
			err = fmt.Errorf("free extent %#x in state %d is on the decay list: %v", v.Addr, v.State, on[v])
			return false
		}
		if on[v] {
			reclaimed++
		}
		return true
	})
	switch {
	case err != nil:
		return err
	case reclaimed != len(on):
		return fmt.Errorf("%d extents on the decay list, %d of them free and reclaimed", len(on), reclaimed)
	case bytes != p.reclaimedBytes.Load():
		return fmt.Errorf("the decay list holds %d bytes, reclaimedBytes %d", bytes, p.reclaimedBytes.Load())
	}
	return nil
}

// TestRebuildCountsChunksFromHeapBase: on a heap whose base is not chunk
// aligned, the in-place bookkeeper's header tables sit at the start of
// each chunk counted from the base, and a rebuild carves them out of the
// gaps it files — as retained, because the reopened process has touched
// none of them.
func TestRebuildCountsChunksFromHeapBase(t *testing.T) {
	const base = pmem.PAddr(1638400) // 25 × 64 KiB, not chunk aligned
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	cfg := Config{HeapBase: base, HeapEnd: pmem.PAddr(dev.Size()), BreakPtr: brkPtr}
	a := New(dev, NewInPlace(dev, base, brkPtr), cfg, Tiers{})
	c := dev.NewCtx()
	var ps []pmem.PAddr
	for i := 0; i < 5; i++ { // two fit a chunk: three chunks
		p, err := a.Alloc(c, 0, 1536<<10)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := a.Free(c, 0, ps[2], false); err != nil {
		t.Fatal(err)
	}
	used := a.Used()
	c.Merge()
	dev.Crash()

	bk := NewInPlace(dev, base, brkPtr)
	c2 := dev.NewCtx()
	recs := bk.Recover(c2)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4: %+v", len(recs), recs)
	}
	a2, _, err := Rebuild(dev, bk, cfg, Tiers{}, c2, recs)
	if err != nil {
		t.Fatal(err)
	}
	p := a2.pool
	if p.reclaimedBytes.Load() != 0 {
		t.Fatalf("rebuild filed %d bytes reclaimed, want every gap retained", p.reclaimedBytes.Load())
	}
	if got, want := p.metaBytes.Load(), uint64(3*HeaderBytes); got != want {
		t.Fatalf("rebuild counts %d bytes of header tables, want %d (three chunks)", got, want)
	}
	// Used loses the freed extent, which was dirty before the crash.
	if got, want := a2.Used(), used-1536<<10; got != want {
		t.Fatalf("Used %d after rebuild, want %d", got, want)
	}
	p.byAddr.Ascend(func(_ pmem.PAddr, v *VEH) bool {
		for k := pmem.PAddr(0); k < 3; k++ {
			table := base + k*ChunkSize
			if v.Addr < table+HeaderBytes && v.End() > table {
				t.Errorf("free extent [%#x,%#x) covers the header table of chunk %d at %#x", v.Addr, v.End(), k, table)
			}
		}
		return true
	})
	// The freed extent's space is carved again, inside its chunk.
	q, err := a2.Alloc(c2, 0, 1536<<10)
	if err != nil {
		t.Fatal(err)
	}
	if q < base || (q-base)%ChunkSize < HeaderBytes {
		t.Fatalf("carve after rebuild returned %#x, inside a header table", q)
	}
}

// TestCommitMetaNotesPeak: committed metadata adds to Used, and the peak
// follows it.
func TestCommitMetaNotesPeak(t *testing.T) {
	_, a, c := newTiered(t, 48<<20, Tiers{})
	if _, err := a.Alloc(c, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	before := a.Used()
	a.CommitMeta(4096)
	if a.Used() != before+4096 || a.Peak() != a.Used() {
		t.Fatalf("Used %d and Peak %d after committing 4096 B over %d, want both %d", a.Used(), a.Peak(), before, before+4096)
	}
}
