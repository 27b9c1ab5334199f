package blog

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"nvalloc/internal/pmem"
)

const testRegion = 256 * ChunkSize

// testLog is the log as the tests drive it: RecordFree takes one address
// (a group of one).
type testLog struct{ *Log }

func (l testLog) RecordFree(c *pmem.Ctx, addr pmem.PAddr) error { return freeOne(l.Log, c, addr) }

func newTestLog(t *testing.T) (*pmem.Device, testLog, *pmem.Ctx) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
	return dev, testLog{New(dev.Mem(), 4096, testRegion, 6)}, dev.NewCtx()
}

func reopen(t *testing.T, dev *pmem.Device) (testLog, map[pmem.PAddr]Record) {
	t.Helper()
	l, recs, err := Open(dev, 4096, testRegion, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[pmem.PAddr]Record, len(recs))
	for _, r := range recs {
		m[r.Addr] = r
	}
	return testLog{l}, m
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(page uint32, size uint32, tRaw uint8) bool {
		addr := pmem.PAddr(page) << 12
		sz := uint64(size) % (1 << 26)
		typ := Type(tRaw%3 + 1)
		a, s, ty := decode(encode(addr, sz, typ))
		return a == addr && s == sz && ty == typ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"oversize":  func() { encode(0x1000, 1<<26, TypeExtent) },
		"unaligned": func() { encode(0x1001, 8, TypeExtent) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAllocFreeRecoverRoundtrip(t *testing.T) {
	dev, l, c := newTestLog(t)
	if err := l.RecordAlloc(c, 0x10000, 64<<10, true); err != nil {
		t.Fatal(err)
	}
	if err := l.RecordAlloc(c, 0x20000, 4096, false); err != nil {
		t.Fatal(err)
	}
	if err := l.RecordAlloc(c, 0x30000, 8192, false); err != nil {
		t.Fatal(err)
	}
	if err := l.RecordFree(c, 0x20000); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	_, recs := reopen(t, dev)
	if len(recs) != 2 {
		t.Fatalf("want 2 live records, got %v", recs)
	}
	if r := recs[0x10000]; !r.Slab || r.Size != 64<<10 {
		t.Fatalf("slab record wrong: %+v", r)
	}
	if r := recs[0x30000]; r.Slab || r.Size != 8192 {
		t.Fatalf("extent record wrong: %+v", r)
	}
}

func TestFreeUnknownAddress(t *testing.T) {
	_, l, c := newTestLog(t)
	if err := l.RecordFree(c, 0xDEAD000); err == nil {
		t.Fatal("expected error for unrecorded free")
	}
}

func TestReallocSameAddressKeepsLatestSize(t *testing.T) {
	dev, l, c := newTestLog(t)
	check := func(wantSize uint64) {
		t.Helper()
		dev.Crash()
		_, recs := reopen(t, dev)
		if len(recs) != 1 || recs[0x50000].Size != wantSize {
			t.Fatalf("want single record size %d, got %v", wantSize, recs)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.RecordAlloc(c, 0x50000, 4096, false))
	must(l.RecordFree(c, 0x50000))
	must(l.RecordAlloc(c, 0x50000, 16384, false))
	check(16384)
}

func TestFastGCRetiresEmptyChunksAndReusesThem(t *testing.T) {
	_, l, c := newTestLog(t)
	// Fill several chunks then free everything in the first ones.
	var addrs []pmem.PAddr
	for i := 0; i < l.EntriesPerChunk()*3; i++ {
		a := pmem.PAddr(0x100000 + i*0x1000)
		if err := l.RecordAlloc(c, a, 4096, false); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	active0 := l.ActiveChunks()
	if active0 < 3 {
		t.Fatalf("expected >=3 chunks, got %d", active0)
	}
	// Hold the log's GC gate closed while freeing, so retirement is left
	// to the explicit pass below instead of running inline with the frees.
	l.outstanding++
	for _, a := range addrs[:l.EntriesPerChunk()*2] {
		if err := l.RecordFree(c, a); err != nil {
			t.Fatal(err)
		}
	}
	l.outstanding--
	// The frees themselves wrote tombstones into later chunks; the first
	// two chunks should now be empty.
	n := l.FastGC(c)
	if n < 2 {
		t.Fatalf("fast GC retired %d chunks, want >= 2", n)
	}
	if fast, _ := l.GCCounts(); fast == 0 {
		t.Fatal("fast GC counter not bumped")
	}
	// New appends should reactivate dormant chunks rather than growing.
	grew := l.ActiveChunks()
	for i := 0; i < l.EntriesPerChunk(); i++ {
		a := pmem.PAddr(0x900000 + i*0x1000)
		if err := l.RecordAlloc(c, a, 4096, false); err != nil {
			t.Fatal(err)
		}
	}
	if l.ActiveChunks() > grew+1 {
		t.Fatalf("appends should reuse dormant chunks: %d -> %d", grew, l.ActiveChunks())
	}
}

func TestDormantReuseDoesNotResurrectStaleEntries(t *testing.T) {
	dev, l, c := newTestLog(t)
	// Fill one chunk, free all of it, fast-GC it, then reuse it with a
	// single fresh entry. Recovery must see exactly the live set.
	var addrs []pmem.PAddr
	for i := 0; i < l.EntriesPerChunk(); i++ {
		a := pmem.PAddr(0x200000 + i*0x1000)
		if err := l.RecordAlloc(c, a, 4096, false); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := l.RecordFree(c, a); err != nil {
			t.Fatal(err)
		}
	}
	l.FastGC(c)
	// Force enough appends to cycle into the dormant chunk.
	var fresh []pmem.PAddr
	for i := 0; i < l.EntriesPerChunk()+4; i++ {
		a := pmem.PAddr(0x800000 + i*0x1000)
		if err := l.RecordAlloc(c, a, 4096, false); err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, a)
	}
	dev.Crash()
	_, recs := reopen(t, dev)
	if len(recs) != len(fresh) {
		t.Fatalf("stale entries resurrected or lost: got %d, want %d", len(recs), len(fresh))
	}
	for _, a := range fresh {
		if _, ok := recs[a]; !ok {
			t.Fatalf("live record %#x missing", a)
		}
	}
}

func TestSlowGCCompactsAndSurvivesRecovery(t *testing.T) {
	dev, l, c := newTestLog(t)
	live := map[pmem.PAddr]bool{}
	for i := 0; i < l.EntriesPerChunk()*4; i++ {
		a := pmem.PAddr(0x100000 + i*0x1000)
		if err := l.RecordAlloc(c, a, 4096, false); err != nil {
			t.Fatal(err)
		}
		live[a] = true
	}
	// Free 3 of every 4 entries, scattered so no chunk empties fully.
	i := 0
	for a := range live {
		if i%4 != 0 {
			if err := l.RecordFree(c, a); err != nil {
				t.Fatal(err)
			}
			delete(live, a)
		}
		i++
	}
	before := l.ActiveChunks()
	n, err := l.SlowGC(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(live) {
		t.Fatalf("slow GC copied %d, want %d", n, len(live))
	}
	if l.ActiveChunks() >= before {
		t.Fatalf("slow GC did not shrink the chain: %d -> %d", before, l.ActiveChunks())
	}
	if _, slow := l.GCCounts(); slow != 1 {
		t.Fatal("slow GC counter not bumped")
	}
	// Log must remain fully functional and recoverable.
	if err := l.RecordAlloc(c, 0xF00000, 4096, false); err != nil {
		t.Fatal(err)
	}
	live[0xF00000] = true
	dev.Crash()
	_, recs := reopen(t, dev)
	if len(recs) != len(live) {
		t.Fatalf("after slow GC + crash: got %d live, want %d", len(recs), len(live))
	}
	for a := range live {
		if _, ok := recs[a]; !ok {
			t.Fatalf("live record %#x lost by slow GC", a)
		}
	}
}

func TestCrashDuringSlowGCKeepsOldChain(t *testing.T) {
	dev, l, c := newTestLog(t)
	live := map[pmem.PAddr]bool{}
	for i := 0; i < l.EntriesPerChunk()*2; i++ {
		a := pmem.PAddr(0x100000 + i*0x1000)
		if err := l.RecordAlloc(c, a, 4096, false); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			live[a] = true
		} else if err := l.RecordFree(c, a); err != nil {
			t.Fatal(err)
		}
	}
	// Cut power partway through the slow GC: the alt flip is the very
	// last flush, so any earlier cut must preserve the old chain.
	for _, cut := range []int64{1, 3, 5} {
		img := dev // strict device: crash rolls back to flushed state
		img.CrashAfterFlushes(cut)
		_, _ = l.SlowGC(c)
		img.Crash()
		l2, recs := reopen(t, img)
		if len(recs) != len(live) {
			t.Fatalf("cut=%d: got %d live, want %d", cut, len(recs), len(live))
		}
		l = l2
		c = dev.NewCtx()
	}
}

func TestRecoveryAfterCleanOperationsRandomized(t *testing.T) {
	dev, l, c := newTestLog(t)
	rng := rand.New(rand.NewSource(7))
	live := map[pmem.PAddr]uint64{}
	var order []pmem.PAddr
	next := pmem.PAddr(0x100000)
	for op := 0; op < 3000; op++ {
		if len(order) == 0 || rng.Intn(100) < 55 {
			size := uint64(rng.Intn(64)+1) * 4096
			if err := l.RecordAlloc(c, next, size, rng.Intn(4) == 0); err != nil {
				t.Fatal(err)
			}
			live[next] = size
			order = append(order, next)
			next += 0x1000
		} else {
			i := rng.Intn(len(order))
			a := order[i]
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			if err := l.RecordFree(c, a); err != nil {
				t.Fatal(err)
			}
			delete(live, a)
		}
		if op%500 == 250 {
			l.MaybeGC(c)
		}
	}
	dev.Crash()
	_, recs := reopen(t, dev)
	if len(recs) != len(live) {
		t.Fatalf("live mismatch: got %d, want %d", len(recs), len(live))
	}
	for a, sz := range live {
		r, ok := recs[a]
		if !ok || r.Size != sz {
			t.Fatalf("record %#x: %+v want size %d", a, r, sz)
		}
	}
}

func TestAppendsAreSequentialNotRandom(t *testing.T) {
	dev, l, _ := newTestLog(t)
	c := dev.NewCtx()
	for i := 0; i < 500; i++ {
		if err := l.RecordAlloc(c, pmem.PAddr(0x100000+i*0x1000), 4096, false); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Local()
	// The whole point of log-structured bookkeeping: metadata writes are
	// (mostly) not reflushes. Chunk-header link updates may be random,
	// but entry appends dominate.
	if s.Reflushes*5 > s.Flushes {
		t.Fatalf("too many reflushes in log appends: %d of %d", s.Reflushes, s.Flushes)
	}
}

func TestInterleavedAppendsAvoidReflush(t *testing.T) {
	run := func(stripes int) uint64 {
		dev := pmem.New(pmem.Config{Size: 8 << 20})
		l := testLog{New(dev.Mem(), 4096, testRegion, stripes)}
		c := dev.NewCtx()
		// The first append creates the chunk (break + head pointer share
		// the log header line, a one-time reflush); measure steady state.
		if err := l.RecordAlloc(c, 0x100000, 4096, false); err != nil {
			t.Fatal(err)
		}
		start := c.Local().Reflushes
		for i := 1; i < l.EntriesPerChunk(); i++ {
			if err := l.RecordAlloc(c, pmem.PAddr(0x100000+i*0x1000), 4096, false); err != nil {
				t.Fatal(err)
			}
		}
		return c.Local().Reflushes - start
	}
	if r := run(6); r != 0 {
		t.Fatalf("interleaved log appends reflushed %d times", r)
	}
	if r := run(1); r == 0 {
		t.Fatal("sequential entry layout must reflush (8 entries share a line)")
	}
}

func TestRegionSizeScaling(t *testing.T) {
	if RegionSize(1<<20)%ChunkSize != 0 {
		t.Fatal("region size must be chunk aligned")
	}
	if RegionSize(1<<30) <= RegionSize(1<<20) {
		t.Fatal("region must scale with heap size")
	}
	if RegionSize(0) < 64*ChunkSize {
		t.Fatal("region floor violated")
	}
	if got := RegionSize(256 << 20); got != 1<<20 {
		t.Fatalf("a 256 MiB heap's region is %d bytes, want 1 MiB (heap/256)", got)
	}
	// The live-record bound at the worst stripe count: one record per
	// 16 KiB of heap, minPerChunk to a chunk. The region holds that chain
	// four times over.
	for s := 1; s <= (ChunkSize-chunkHdrSize)/pmem.LineSize; s++ {
		if PerChunk(s) < minPerChunk {
			t.Fatalf("PerChunk(%d) = %d, below minPerChunk", s, PerChunk(s))
		}
	}
	heap := uint64(1 << 30)
	liveChunks := (heap/(16<<10) + minPerChunk - 1) / minPerChunk
	if chunks := (RegionSize(heap) - headerSize) / ChunkSize; chunks < 4*liveChunks-1 {
		t.Fatalf("region of %d chunks, live chain up to %d", chunks, liveChunks)
	}
}

func TestLogRegionExhaustion(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 8 << 20})
	l := testLog{New(dev.Mem(), 4096, 4*ChunkSize, 6)} // tiny: 3 chunks only
	c := dev.NewCtx()
	var err error
	n := 0
	for ; n < 3*l.EntriesPerChunk(); n++ {
		err = l.RecordAlloc(c, pmem.PAddr(0x100000+n*0x1000), 4096, false)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v after %d records", err, n)
	}
	// The live set may fill one chunk: its copy takes a second, and
	// appends need a third.
	if n != l.EntriesPerChunk() {
		t.Fatalf("log of 3 chunks took %d records, want one chunk's worth (%d)", n, l.EntriesPerChunk())
	}
	// Frees still succeed: each compacts the log to make room for its
	// tombstone.
	for i := 0; i < n; i++ {
		if err := l.RecordFree(c, pmem.PAddr(0x100000+i*0x1000)); err != nil {
			t.Fatalf("free %d of a full log: %v", i, err)
		}
	}
}

func TestCrashFuzzEveryFlushBoundary(t *testing.T) {
	// Cut power at a sweep of flush counts during a random alloc/free/GC
	// sequence. After every cut the log must recover without error, report
	// a duplicate-free live set that is a subset of everything ever
	// allocated, and remain fully usable.
	everAllocated := map[pmem.PAddr]bool{}
	script := func(l testLog, dev *pmem.Device, c *pmem.Ctx, record bool) {
		rng := rand.New(rand.NewSource(21))
		var live []pmem.PAddr
		next := pmem.PAddr(0x100000)
		for op := 0; op < 1200; op++ {
			if dev.Crashed() {
				return
			}
			if len(live) == 0 || rng.Intn(100) < 60 {
				if err := l.RecordAlloc(c, next, 4096, rng.Intn(3) == 0); err != nil {
					return
				}
				if record {
					everAllocated[next] = true
				}
				live = append(live, next)
				next += 0x1000
			} else {
				i := rng.Intn(len(live))
				if err := l.RecordFree(c, live[i]); err != nil {
					return
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if op%300 == 150 {
				l.MaybeGC(c)
			}
			if op%400 == 399 {
				_, _ = l.SlowGC(c)
			}
		}
	}
	// One clean pass to collect the address universe.
	{
		dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
		l := testLog{New(dev.Mem(), 4096, testRegion, 6)}
		script(l, dev, dev.NewCtx(), true)
	}
	for cut := int64(1); cut < 400; cut += 13 {
		dev := pmem.New(pmem.Config{Size: 8 << 20, Strict: true})
		l := testLog{New(dev.Mem(), 4096, testRegion, 6)}
		dev.CrashAfterFlushes(cut)
		script(l, dev, dev.NewCtx(), false)
		dev.Crash()
		s2, recs, err := Open(dev, 4096, testRegion, 6)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		l2 := testLog{s2}
		seen := map[pmem.PAddr]bool{}
		for _, r := range recs {
			if seen[r.Addr] {
				t.Fatalf("cut=%d: duplicate live record %#x", cut, r.Addr)
			}
			seen[r.Addr] = true
			if !everAllocated[r.Addr] {
				t.Fatalf("cut=%d: phantom record %#x", cut, r.Addr)
			}
			if r.Size == 0 || r.Size%4096 != 0 {
				t.Fatalf("cut=%d: corrupt record %+v", cut, r)
			}
		}
		// The recovered log stays usable end to end.
		c := dev.NewCtx()
		if err := l2.RecordAlloc(c, 0xF000000, 8192, false); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l2.RecordFree(c, 0xF000000); err != nil {
			t.Fatalf("cut=%d: free after recovery: %v", cut, err)
		}
	}
}

func TestRecordGroupSingleFenceAndRecovery(t *testing.T) {
	dev, l, c := newTestLog(t)
	// Warm-up: force the first chunk into existence so the fence counts
	// below measure the records themselves, not chunk allocation.
	if err := l.RecordAlloc(c, 0x50000, 4096, false); err != nil {
		t.Fatal(err)
	}
	if err := l.RecordFree(c, 0x50000); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Addr: 0x10000, Size: 64 << 10, Slab: true},
		{Addr: 0x20000, Size: 4096},
		{Addr: 0x30000, Size: 8192},
		{Addr: 0x40000, Size: 16384},
	}
	// An alloc record follows its extent's initialization, so it is never
	// grouped: every one carries its own fence.
	f0 := c.Local().Fences
	for _, r := range recs {
		if err := l.RecordAlloc(c, r.Addr, r.Size, r.Slab); err != nil {
			t.Fatal(err)
		}
	}
	if fences := c.Local().Fences - f0; fences != uint64(len(recs)) {
		t.Fatalf("%d alloc records issued %d fences, want one each", len(recs), fences)
	}
	f0 = c.Local().Fences
	n, err := l.Log.RecordFree(c, []pmem.PAddr{0x20000, 0x40000})
	if err != nil || n != 2 {
		t.Fatalf("free group persisted %d of 2: %v", n, err)
	}
	if fences := c.Local().Fences - f0; fences != 1 {
		t.Fatalf("free group issued %d fences, want 1", fences)
	}
	dev.Crash()
	_, live := reopen(t, dev)
	if len(live) != 2 {
		t.Fatalf("want 2 live records after alloc + grouped free, got %v", live)
	}
	if r, ok := live[0x10000]; !ok || r.Size != 64<<10 || !r.Slab {
		t.Fatalf("slab record lost or mangled: %+v %v", r, ok)
	}
	if r, ok := live[0x30000]; !ok || r.Size != 8192 {
		t.Fatalf("extent record lost or mangled: %+v %v", r, ok)
	}
}

func TestRecordFreeGroupUnknownAddrFailsFenced(t *testing.T) {
	dev, l, c := newTestLog(t)
	if err := l.RecordAlloc(c, 0x10000, 4096, false); err != nil {
		t.Fatal(err)
	}
	// The first address tombstones fine; the unknown one aborts the group
	// but the persisted prefix must be reported, fenced and recoverable.
	f0 := c.Local().Fences
	n, err := l.Log.RecordFree(c, []pmem.PAddr{0x10000, 0x99000})
	if err == nil {
		t.Fatal("free group with unrecorded address must error")
	}
	if n != 1 {
		t.Fatalf("free group reported %d persisted tombstones, want 1", n)
	}
	if fences := c.Local().Fences - f0; fences != 1 {
		t.Fatalf("failed free group issued %d fences, want 1 (prefix fenced)", fences)
	}
	dev.Crash()
	_, live := reopen(t, dev)
	if len(live) != 0 {
		t.Fatalf("prefix tombstone lost: %v", live)
	}
}

// TestSingleRecordAllocatesNothing pins the group-of-one path: a steady
// state record + tombstone pair touches no Go heap.
func TestSingleRecordAllocatesNothing(t *testing.T) {
	// Not strict: the simulator's strict-mode line locks allocate an
	// unlock closure per typed store, which is not the path under test.
	dev := pmem.New(pmem.Config{Size: 8 << 20})
	l, c := testLog{New(dev.Mem(), 4096, testRegion, 6)}, dev.NewCtx()
	addrs := []pmem.PAddr{0x70000}
	pair := func() {
		if err := l.RecordAlloc(c, addrs[0], 4096, false); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Log.RecordFree(c, addrs); err != nil {
			t.Fatal(err)
		}
	}
	pair() // first chunk, index map bucket
	// Stay inside the current chunk: a chunk transition allocates its
	// vchunk by design.
	if avg := testing.AllocsPerRun(l.EntriesPerChunk()/4, pair); avg != 0 {
		t.Fatalf("record+tombstone pair allocates %.1f objects, want 0", avg)
	}
}

// TestBreakMovesReportWhatTheyPutInService: a fresh log has nothing in
// service; each break move reports its growth to OnGrow (the header with
// the first chunk), and the reports add up to InService, which a reopen
// reads back from the break.
func TestBreakMovesReportWhatTheyPutInService(t *testing.T) {
	dev, l, c := newTestLog(t)
	var grown uint64
	l.OnGrow = func(n uint64) { grown += n }
	if l.InService() != 0 {
		t.Fatalf("fresh log: %d bytes in service, want 0", l.InService())
	}
	for i := 0; i < 300; i++ {
		if err := l.RecordAlloc(c, pmem.PAddr(1<<20+i*4096), 4096, false); err != nil {
			t.Fatal(err)
		}
		chunks := uint64(i/l.EntriesPerChunk() + 1)
		if want := headerSize + chunks*ChunkSize; l.InService() != want || grown != want {
			t.Fatalf("after %d records: %d bytes in service, %d reported, want %d", i+1, l.InService(), grown, want)
		}
	}
	r, _ := reopen(t, dev)
	if r.InService() != l.InService() {
		t.Fatalf("reopened log: %d bytes in service, %d before", r.InService(), l.InService())
	}
}
