package blog

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"nvalloc/internal/pmem"
)

const (
	testShards      = 4
	testShardedSize = uint64(testShards) * 64 * ChunkSize
)

func newTestSharded(t *testing.T) (*pmem.Device, *Sharded) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	return dev, New(dev.Mem(), 4096, testShardedSize, 6, testShards)
}

// shardedAddr returns the i-th test address, one routing granule apart
// so consecutive addresses spread across shards.
func shardedAddr(i int) pmem.PAddr {
	return pmem.PAddr(1<<30) + pmem.PAddr(i)*shardGranule
}

func TestShardIndexProperties(t *testing.T) {
	// Deterministic: the same address always routes identically.
	for i := 0; i < 64; i++ {
		a := shardedAddr(i)
		if ShardIndex(a, testShards) != ShardIndex(a, testShards) {
			t.Fatalf("ShardIndex not deterministic for %#x", a)
		}
	}
	// Granule locality: addresses in one 2 MiB granule share a shard
	// (a batched refill's contiguous records land in one chunk).
	base := shardedAddr(3)
	for off := pmem.PAddr(0); off < shardGranule; off += 64 << 10 {
		if ShardIndex(base+off, testShards) != ShardIndex(base, testShards) {
			t.Fatalf("granule split across shards at +%#x", off)
		}
	}
	// Spread: many granules cover more than one shard.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[ShardIndex(shardedAddr(i), testShards)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 granules all routed to one shard")
	}
	// n <= 1 always routes to shard 0.
	if ShardIndex(shardedAddr(9), 1) != 0 || ShardIndex(shardedAddr(9), 0) != 0 {
		t.Fatal("single-shard routing must return 0")
	}
}

// TestShardedRecordRecoverMergedUnion checks that merged recovery
// returns exactly the union of the shards' live sets, address-ordered,
// with tombstoned extents gone.
func TestShardedRecordRecoverMergedUnion(t *testing.T) {
	dev, s := newTestSharded(t)
	c := dev.NewCtx()
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.RecordAlloc(c, shardedAddr(i), uint64(4096*(i%4+1)), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := freeOne(s, c, shardedAddr(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Merge()

	_, recs, err := Open(dev, 4096, testShardedSize, 6, testShards)
	if err != nil {
		t.Fatal(err)
	}
	want := map[pmem.PAddr]bool{}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			want[shardedAddr(i)] = true
		}
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if !want[r.Addr] {
			t.Fatalf("recovered unexpected record %#x", r.Addr)
		}
		if wantSize := uint64(4096 * (int(uint64(r.Addr-1<<30)/shardGranule)%4 + 1)); r.Size != wantSize {
			t.Fatalf("record %#x has size %d, want %d", r.Addr, r.Size, wantSize)
		}
		if i > 0 && recs[i-1].Addr >= r.Addr {
			t.Fatalf("merged records not strictly address-ordered at %d", i)
		}
	}
}

// TestShardedOpenLowestShardErrorWins: Open reads the shards concurrently,
// yet it merges the same records at GOMAXPROCS 1 and 8 and returns the
// error a serial open meets first: with shards 1 and 3 damaged, the error
// names shard 1 at every GOMAXPROCS.
func TestShardedOpenLowestShardErrorWins(t *testing.T) {
	dev, s := newTestSharded(t)
	c := dev.NewCtx()
	for i := 0; i < 40; i++ {
		if err := s.RecordAlloc(c, shardedAddr(i), 4096, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Merge()
	_, per := shardLayout(testShardedSize, testShards)
	alt := func(i int) pmem.PAddr { return 4096 + pmem.PAddr(uint64(i)*per) + offAlt }
	var recs []Record
	for _, procs := range []int{1, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, got, err := Open(dev, 4096, testShardedSize, 6, testShards)
			if err != nil {
				t.Fatal(err)
			}
			if recs != nil && !slices.Equal(got, recs) {
				t.Fatalf("GOMAXPROCS %d: merged records differ from GOMAXPROCS 1's", procs)
			}
			recs = got
		}()
	}
	for _, i := range []int{1, 3} {
		dev.WriteU64(alt(i), dev.ReadU64(alt(i))^0xff)
	}
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for rep := 0; rep < 5; rep++ {
				_, _, err := Open(dev, 4096, testShardedSize, 6, testShards)
				if err == nil || !strings.HasPrefix(err.Error(), "blog shard 1:") {
					t.Fatalf("GOMAXPROCS %d: Open returned %v, want shard 1's error", procs, err)
				}
			}
		}()
	}
}

// TestShardedConcurrentAppendCrashSweep crashes the device at a sweep of
// flush counts while several goroutines append into different shards,
// then verifies merged recovery: every shard opens (a mid-append shard
// recovers its valid prefix), no unknown record is recovered, and no
// tombstoned-and-fenced extent is resurrected.
func TestShardedConcurrentAppendCrashSweep(t *testing.T) {
	const workers = 4
	for _, cut := range []int64{1, 2, 5, 9, 17, 33, 70, 151, 400} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
			s := New(dev.Mem(), 4096, testShardedSize, 6, testShards)

			// Phase 1 (pre-crash, durable): record a base set and free a
			// deterministic subset; everything here is fenced before the
			// cut counter is armed.
			c := dev.NewCtx()
			tombstoned := map[pmem.PAddr]bool{}
			for i := 0; i < 24; i++ {
				if err := s.RecordAlloc(c, shardedAddr(i), 4096, false); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 24; i += 2 {
				if err := freeOne(s, c, shardedAddr(i)); err != nil {
					t.Fatal(err)
				}
				tombstoned[shardedAddr(i)] = true
			}
			c.Merge()

			// Phase 2: concurrent appends racing the power cut.
			appended := make([]map[pmem.PAddr]bool, workers)
			dev.CrashAfterFlushes(cut)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				appended[w] = map[pmem.PAddr]bool{}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wc := dev.NewCtx()
					defer wc.Merge()
					for i := 0; i < 32 && !dev.Crashed(); i++ {
						a := shardedAddr(1000 + w*100 + i)
						if s.RecordAlloc(wc, a, 8192, false) == nil {
							appended[w][a] = true
						}
					}
				}(w)
			}
			wg.Wait()
			dev.Crash()

			_, recs, err := Open(dev, 4096, testShardedSize, 6, testShards)
			if err != nil {
				t.Fatalf("cut=%d: merged recovery failed: %v", cut, err)
			}
			known := map[pmem.PAddr]bool{}
			for i := 0; i < 24; i++ {
				known[shardedAddr(i)] = true
			}
			for w := range appended {
				for a := range appended[w] {
					known[a] = true
				}
			}
			got := map[pmem.PAddr]bool{}
			for _, r := range recs {
				if got[r.Addr] {
					t.Fatalf("cut=%d: duplicate record %#x in merge", cut, r.Addr)
				}
				got[r.Addr] = true
				if !known[r.Addr] {
					t.Fatalf("cut=%d: recovered never-recorded extent %#x", cut, r.Addr)
				}
				if tombstoned[r.Addr] {
					t.Fatalf("cut=%d: resurrected tombstoned extent %#x", cut, r.Addr)
				}
			}
			// Durable phase-1 survivors must all be present (no leak of a
			// recorded extent).
			for i := 1; i < 24; i += 2 {
				if !got[shardedAddr(i)] {
					t.Fatalf("cut=%d: lost durable record %#x", cut, shardedAddr(i))
				}
			}
		})
	}
}

// TestShardedLazyFormatCostsNothing verifies that creating a sharded log
// writes nothing: formatting is lazy (first append pays it), so unused
// shards are free.
func TestShardedLazyFormatCostsNothing(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	before := dev.Stats().Flushes
	New(dev.Mem(), 4096, testShardedSize, 6, testShards)
	if after := dev.Stats().Flushes; after != before {
		t.Fatalf("New flushed %d lines, want 0", after-before)
	}
	// And an untouched sharded region still opens as empty.
	_, recs, err := Open(dev, 4096, testShardedSize, 6, testShards)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh region recovered %d records", len(recs))
	}
}
