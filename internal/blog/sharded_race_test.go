package blog

import (
	"sync"
	"testing"

	"nvalloc/internal/pmem"
)

// TestShardedAppendersRaceIncrementalGC runs real goroutines through the
// sharded log's lock-split append path (slot reservation under the shard
// resource, publish+fence outside it) while incremental GC runs both
// inline on the free path and from a competing full-GC goroutine. Run
// under -race, it checks the outstanding gate end to end:
//
//   - no GC pass ever starts or steps while a reserved slot's publish is
//     in flight (GCWhileOutstanding stays zero on every shard), and
//   - GC reclaims no live chunk: after the churn settles, the volatile
//     index and a fresh recovery both report exactly the tracked live
//     set — nothing lost to a compaction that raced a publish, nothing
//     resurrected from a reclaimed chunk.
func TestShardedAppendersRaceIncrementalGC(t *testing.T) {
	const (
		workers = 4
		rounds  = 40
		batch   = 8
		keep    = 2 // live extents retained per round per worker
	)
	dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	s := New(dev.Mem(), 4096, testShardedSize, 6, testShards)
	// Escalate to slow GC after ~4 chunks per shard and advance it one
	// chunk at a time, so compaction interleaves with appends as finely
	// as the implementation allows.
	s.SetSlowGCThreshold(4 * ChunkSize * testShards)
	for i := 0; i < s.NumShards(); i++ {
		s.Shard(i).GCBudgetChunks = 1
	}

	live := make([]map[pmem.PAddr]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		live[w] = map[pmem.PAddr]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dev.NewCtx()
			defer c.Merge()
			// Worker-private granule-spread addresses: every worker's
			// traffic crosses every shard, but records and tombstones
			// never collide across workers.
			addr := func(i int) pmem.PAddr { return shardedAddr(w*100000 + i) }
			next := 0
			for r := 0; r < rounds; r++ {
				batchAddrs := make([]pmem.PAddr, 0, batch)
				for i := 0; i < batch; i++ {
					a := addr(next)
					next++
					if err := s.RecordAlloc(c, a, 4096, false); err != nil {
						t.Errorf("worker %d: RecordAlloc(%#x): %v", w, a, err)
						return
					}
					batchAddrs = append(batchAddrs, a)
				}
				// Free all but `keep`, driving the inline incremental GC.
				for _, a := range batchAddrs[keep:] {
					if err := freeOne(s, c, a); err != nil {
						t.Errorf("worker %d: RecordFree(%#x): %v", w, a, err)
						return
					}
				}
				for _, a := range batchAddrs[:keep] {
					live[w][a] = true
				}
			}
		}(w)
	}
	// A competing collector: full slow-GC sweeps racing the appenders.
	gcDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(gcDone)
		c := dev.NewCtx()
		defer c.Merge()
		for i := 0; i < 64; i++ {
			for j, l := range s.shards {
				s.res[j].Acquire(c)
				if l.outstanding == 0 {
					_, _ = l.SlowGC(c)
				}
				s.res[j].Release(c)
			}
		}
	}()
	wg.Wait()
	<-gcDone

	for i := 0; i < s.NumShards(); i++ {
		if n := s.Shard(i).GCWhileOutstanding(); n != 0 {
			t.Errorf("shard %d: %d GC passes ran with a publish in flight", i, n)
		}
	}
	want := map[pmem.PAddr]bool{}
	for w := range live {
		for a := range live[w] {
			want[a] = true
		}
	}
	if got := s.Live(); got != len(want) {
		t.Errorf("volatile live set has %d extents, tracked %d", got, len(want))
	}
	// Everything above was fenced before the workers joined: recovery
	// must reproduce the tracked live set exactly.
	_, recs, err := Open(dev, 4096, testShardedSize, 6, testShards)
	if err != nil {
		t.Fatalf("recovery after churn: %v", err)
	}
	got := map[pmem.PAddr]bool{}
	for _, r := range recs {
		if got[r.Addr] {
			t.Errorf("duplicate recovered record %#x", r.Addr)
		}
		got[r.Addr] = true
		if !want[r.Addr] {
			t.Errorf("recovered extent %#x was freed (resurrected by GC?)", r.Addr)
		}
	}
	for a := range want {
		if !got[a] {
			t.Errorf("live extent %#x lost (reclaimed by a racing GC?)", a)
		}
	}
}
