package blog

import (
	"fmt"
	"sync"
	"testing"

	"nvalloc/internal/pmem"
)

func freeOne(l *Log, c *pmem.Ctx, addr pmem.PAddr) error {
	_, err := l.RecordFree(c, []pmem.PAddr{addr})
	return err
}

// testAddr returns the i-th test address.
func testAddr(i int) pmem.PAddr { return pmem.PAddr(1<<30) + pmem.PAddr(i)<<12 }

// TestAppendersRaceIncrementalGC runs real goroutines through the log's
// lock-split append path (slot reservation under the resource,
// publish+fence outside it) while incremental GC runs both inline on the
// free path and from a competing full-GC goroutine. Run
// under -race, it checks the outstanding gate end to end:
//
//   - no GC pass ever starts or steps while a reserved slot's publish is
//     in flight (GCWhileOutstanding stays zero), and
//   - GC reclaims no live chunk: after the churn settles, the volatile
//     index and a fresh recovery both report exactly the tracked live
//     set — nothing lost to a compaction that raced a publish, nothing
//     resurrected from a reclaimed chunk.
func TestAppendersRaceIncrementalGC(t *testing.T) {
	const (
		workers = 4
		rounds  = 40
		batch   = 8
		keep    = 2 // live extents retained per round per worker
	)
	dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	s := New(dev.Mem(), 4096, testRegion, 6)
	// Escalate to slow GC after ~4 chunks and advance it one chunk at a
	// time, so compaction interleaves with appends as finely as the
	// implementation allows.
	s.SlowGCThreshold = 4 * ChunkSize
	s.gcBudget = 1

	live := make([]map[pmem.PAddr]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		live[w] = map[pmem.PAddr]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dev.NewCtx()
			defer c.Merge()
			// Worker-private addresses: records and tombstones never
			// collide across workers.
			addr := func(i int) pmem.PAddr { return testAddr(w*100000 + i) }
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
			s.res.Acquire(c)
			if s.outstanding == 0 {
				_, _ = s.SlowGC(c)
			}
			s.res.Release(c)
		}
	}()
	wg.Wait()
	<-gcDone

	if n := s.GCWhileOutstanding(); n != 0 {
		t.Errorf("%d GC passes ran with a publish in flight", n)
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
	_, recs, err := Open(dev, 4096, testRegion, 6)
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

// TestConcurrentAppendCrashSweep crashes the device at a sweep of flush
// counts while several goroutines append through the log's
// reserve-then-publish path, then verifies recovery: the log opens (the
// chunk the appenders share recovers its valid prefix, holes included),
// no unknown record is recovered, and no tombstoned-and-fenced extent is
// resurrected.
func TestConcurrentAppendCrashSweep(t *testing.T) {
	const workers = 4
	for _, cut := range []int64{1, 2, 5, 9, 17, 33, 70, 151, 400} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
			s := New(dev.Mem(), 4096, testRegion, 6)

			// Phase 1 (pre-crash, durable): record a base set and free a
			// deterministic subset; everything here is fenced before the
			// cut counter is armed.
			c := dev.NewCtx()
			tombstoned := map[pmem.PAddr]bool{}
			for i := 0; i < 24; i++ {
				if err := s.RecordAlloc(c, testAddr(i), 4096, false); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 24; i += 2 {
				if err := freeOne(s, c, testAddr(i)); err != nil {
					t.Fatal(err)
				}
				tombstoned[testAddr(i)] = true
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
						a := testAddr(1000 + w*100 + i)
						if s.RecordAlloc(wc, a, 8192, false) == nil {
							appended[w][a] = true
						}
					}
				}(w)
			}
			wg.Wait()
			dev.Crash()

			_, recs, err := Open(dev, 4096, testRegion, 6)
			if err != nil {
				t.Fatalf("cut=%d: recovery failed: %v", cut, err)
			}
			known := map[pmem.PAddr]bool{}
			for i := 0; i < 24; i++ {
				known[testAddr(i)] = true
			}
			for w := range appended {
				for a := range appended[w] {
					known[a] = true
				}
			}
			got := map[pmem.PAddr]bool{}
			for _, r := range recs {
				if got[r.Addr] {
					t.Fatalf("cut=%d: duplicate record %#x", cut, r.Addr)
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
				if !got[testAddr(i)] {
					t.Fatalf("cut=%d: lost durable record %#x", cut, testAddr(i))
				}
			}
		})
	}
}

// TestLazyFormatCostsNothing verifies that creating a log writes nothing:
// formatting is lazy (the first append pays it).
func TestLazyFormatCostsNothing(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	before := dev.Stats().Flushes
	New(dev.Mem(), 4096, testRegion, 6)
	if after := dev.Stats().Flushes; after != before {
		t.Fatalf("New flushed %d lines, want 0", after-before)
	}
	// And an untouched region still opens as empty.
	_, recs, err := Open(dev, 4096, testRegion, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh region recovered %d records", len(recs))
	}
}
