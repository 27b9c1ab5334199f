package pmem

import (
	"bytes"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeviceSizing(t *testing.T) {
	d := New(Config{Size: 4097})
	if d.Size() != 8192 {
		t.Fatalf("size not rounded to 4K: %d", d.Size())
	}
	if New(Config{}).Size() == 0 {
		t.Fatal("default size must be nonzero")
	}
}

func TestTypedAccessors(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	d.WriteU64(64, 0xdeadbeefcafef00d)
	if got := d.ReadU64(64); got != 0xdeadbeefcafef00d {
		t.Fatalf("u64 roundtrip: %#x", got)
	}
	d.WriteU32(128, 0x12345678)
	if got := d.ReadU32(128); got != 0x12345678 {
		t.Fatalf("u32 roundtrip: %#x", got)
	}
	d.WriteU16(256, 0xbeef)
	if got := d.ReadU16(256); got != 0xbeef {
		t.Fatalf("u16 roundtrip: %#x", got)
	}
	d.WriteU8(300, 0x7f)
	if got := d.ReadU8(300); got != 0x7f {
		t.Fatalf("u8 roundtrip: %#x", got)
	}
	d.Write(512, []byte("hello"))
	if string(d.Bytes(512, 5)) != "hello" {
		t.Fatal("bulk roundtrip failed")
	}
	d.Zero(512, 5)
	for _, b := range d.Bytes(512, 5) {
		if b != 0 {
			t.Fatal("zero did not clear")
		}
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New(Config{Size: 4096})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds access")
		}
	}()
	d.ReadU64(PAddr(d.Size() - 4))
}

func TestU64RoundtripProperty(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	f := func(off uint16, v uint64) bool {
		addr := PAddr(uint64(off) % (d.Size() - 8))
		d.WriteU64(addr, v)
		return d.ReadU64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReflushDetection(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	c := d.NewCtx()
	// Flush A, B, C, D, A: the second A has reflush distance 3.
	lines := []PAddr{0, 64, 128, 192, 0}
	for _, a := range lines {
		c.FlushU64(CatMeta, a)
	}
	if c.local.Reflushes != 1 {
		t.Fatalf("want 1 reflush, got %d", c.local.Reflushes)
	}
	// Flush the same line twice in a row: distance 0, also a reflush.
	c2 := d.NewCtx()
	c2.FlushU64(CatMeta, 0)
	c2.FlushU64(CatMeta, 0)
	if c2.local.Reflushes != 1 {
		t.Fatalf("want 1 reflush at distance 0, got %d", c2.local.Reflushes)
	}
}

func TestReflushDistanceLatency(t *testing.T) {
	// Distance 0 must cost more than distance 3, which must cost more than
	// a regular flush.
	cost := func(pattern []PAddr) int64 {
		d := New(Config{Size: 1 << 16})
		c := d.NewCtx()
		// Prime so XPBuffer misses do not dominate the comparison.
		for _, a := range pattern {
			c.FlushU64(CatMeta, a)
		}
		start := c.Now
		c.FlushU64(CatMeta, pattern[0])
		return c.Now - start
	}
	d0 := cost([]PAddr{0})                     // immediate reflush
	d3 := cost([]PAddr{0, 64, 128, 192})       // distance 3
	far := cost([]PAddr{0, 64, 128, 192, 256}) // distance 4: regular
	if !(d0 > d3 && d3 > far) {
		t.Fatalf("latency ordering violated: d0=%d d3=%d far=%d", d0, d3, far)
	}
	if d0 != ReflushBaseNS && d0 != ReflushBaseNS+XPMissNS {
		t.Fatalf("distance-0 reflush latency unexpected: %d", d0)
	}
}

func TestBeyondWindowIsRegularFlush(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	c := d.NewCtx()
	c.FlushU64(CatMeta, 0)
	for i := 1; i <= ReflushWindow; i++ {
		c.FlushU64(CatMeta, PAddr(i*64))
	}
	before := c.local.Reflushes
	c.FlushU64(CatMeta, 0) // distance == window: not a reflush
	if c.local.Reflushes != before {
		t.Fatal("flush beyond the reflush window must be regular")
	}
}

func TestSequentialVsRandomClassification(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	c := d.NewCtx()
	for i := 0; i < 10; i++ {
		c.FlushU64(CatMeta, PAddr(i*64))
	}
	if c.local.SeqFlushes != 9 { // first one has no predecessor
		t.Fatalf("want 9 sequential flushes, got %d", c.local.SeqFlushes)
	}
	c2 := d.NewCtx()
	for i := 0; i < 10; i++ {
		c2.FlushU64(CatMeta, PAddr((i*7919%512)*64))
	}
	if c2.local.RandFlushes < 8 {
		t.Fatalf("scattered flushes should be random, got rand=%d seq=%d", c2.local.RandFlushes, c2.local.SeqFlushes)
	}
}

// TestXPBufferMissesOnEverySequentialLine pins a known deviation of the
// model (DESIGN.md §4): a flush picks its bank by line % banks, but an
// XPLine is four lines, so the four lines of one XPLine land in four banks
// and the write-combining buffer never combines neighbours. A sequential
// 12-line stream pays the miss on every line, the three that share the
// first line's XPLine included. Fixing it changes every sim_* column, so a
// fix must change this test on purpose.
func TestXPBufferMissesOnEverySequentialLine(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	c := d.NewCtx()
	base := PAddr(16 * XPLineSize)
	for i := 0; i < 12; i++ {
		start := c.Now
		c.FlushU64(CatMeta, base+PAddr(i*LineSize))
		want := int64(SeqFlushNS + XPMissNS) // 175
		if i == 0 {
			want = RandFlushNS + XPMissNS // 325
		}
		if got := c.Now - start; got != want {
			t.Fatalf("line %d of a sequential stream costs %d virtual ns, want %d", i, got, want)
		}
	}
	if c.Local().BankWaitNS != 0 {
		t.Fatalf("a single writer waited %d ns on banks", c.Local().BankWaitNS)
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	run := func(stride int) int64 {
		d := New(Config{Size: 1 << 22})
		c := d.NewCtx()
		for i := 0; i < 1000; i++ {
			c.FlushU64(CatMeta, PAddr(i*stride))
		}
		return c.Now
	}
	if seq, rnd := run(64), run(64*37); seq >= rnd {
		t.Fatalf("sequential flushes must be cheaper: seq=%d rand=%d", seq, rnd)
	}
}

func TestCategoryAccounting(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	c := d.NewCtx()
	c.FlushU64(CatWAL, 0)
	c.FlushU64(CatMeta, 64)
	c.Charge(CatSearch, 100)
	if c.local.CatFlush[CatWAL] != 1 || c.local.CatFlush[CatMeta] != 1 {
		t.Fatal("per-category flush counts wrong")
	}
	if c.local.CatNS[CatSearch] != 100 {
		t.Fatal("charge not attributed")
	}
	c.Merge()
	s := d.Stats()
	if s.Flushes != 2 || s.CatFlush[CatWAL] != 1 {
		t.Fatalf("merge lost counters: %+v", s)
	}
	if s.MaxClockNS == 0 {
		t.Fatal("makespan not recorded")
	}
	if c.Local().Flushes != 0 {
		t.Fatal("merge must reset local stats")
	}
}

func TestCrashDiscardsUnflushedStores(t *testing.T) {
	d := New(Config{Size: 1 << 16, Strict: true})
	c := d.NewCtx()
	d.WriteU64(64, 111)
	c.PersistU64(CatMeta, 128, 222) // store+flush
	d.WriteU64(192, 333)            // never flushed
	d.Crash()
	if d.ReadU64(64) != 0 || d.ReadU64(192) != 0 {
		t.Fatal("unflushed stores survived an ADR crash")
	}
	if d.ReadU64(128) != 222 {
		t.Fatal("flushed store lost in crash")
	}
}

func TestEADRCrashKeepsEverything(t *testing.T) {
	d := New(Config{Size: 1 << 16, Strict: true, Mode: ModeEADR})
	d.WriteU64(64, 42)
	d.Crash()
	if d.ReadU64(64) != 42 {
		t.Fatal("eADR crash must keep unflushed stores")
	}
}

func TestEADRFlushIsCheap(t *testing.T) {
	adr := New(Config{Size: 1 << 16})
	eadr := New(Config{Size: 1 << 16, Mode: ModeEADR})
	ca, ce := adr.NewCtx(), eadr.NewCtx()
	for i := 0; i < 100; i++ {
		ca.FlushU64(CatMeta, 0)
		ce.FlushU64(CatMeta, 0)
	}
	if ce.Now*10 > ca.Now {
		t.Fatalf("eADR flushes should be ~free: adr=%d eadr=%d", ca.Now, ce.Now)
	}
	if ce.local.Flushes != 100 {
		t.Fatal("eADR flush calls must still be counted")
	}
}

func TestCrashAfterFlushes(t *testing.T) {
	d := New(Config{Size: 1 << 16, Strict: true})
	c := d.NewCtx()
	d.CrashAfterFlushes(2)
	c.PersistU64(CatMeta, 0, 1)
	c.PersistU64(CatMeta, 64, 2)
	c.PersistU64(CatMeta, 128, 3) // power already lost
	if !d.Crashed() {
		t.Fatal("device should report crashed")
	}
	d.Crash()
	if d.ReadU64(0) != 1 || d.ReadU64(64) != 2 {
		t.Fatal("pre-cut flushes must persist")
	}
	if d.ReadU64(128) != 0 {
		t.Fatal("post-cut flush must not persist")
	}
	// After Crash the device is usable again.
	c2 := d.NewCtx()
	c2.PersistU64(CatMeta, 128, 9)
	d.Crash()
	if d.ReadU64(128) != 9 {
		t.Fatal("device must persist normally after recovery")
	}
}

func TestSaveLoadImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "heap.img")
	d := New(Config{Size: 1 << 16, Strict: true})
	c := d.NewCtx()
	c.PersistU64(CatMeta, 4096, 77)
	if err := d.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	d2 := New(Config{Size: 1 << 16, Strict: true})
	if err := d2.LoadImage(path); err != nil {
		t.Fatal(err)
	}
	if d2.ReadU64(4096) != 77 {
		t.Fatal("image roundtrip lost data")
	}
	// Size mismatch must error.
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d2.LoadImage(path); err == nil {
		t.Fatal("want error on size mismatch")
	}
}

func TestFlushTrace(t *testing.T) {
	d := New(Config{Size: 1 << 16, TraceFlushes: 3})
	c := d.NewCtx()
	for i := 0; i < 5; i++ {
		c.FlushU64(CatMeta, PAddr(i*64))
	}
	tr := d.FlushTrace()
	if len(tr) != 3 {
		t.Fatalf("trace capped at 3, got %d", len(tr))
	}
	if tr[1].Seq != 1 || tr[1].Addr != 64 || tr[1].Cat != CatMeta {
		t.Fatalf("trace record wrong: %+v", tr[1])
	}
}

func TestResourceSerializesVirtualTime(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	var r Resource
	a, b := d.NewCtx(), d.NewCtx()
	r.Acquire(a)
	a.Charge(CatOther, 1000)
	r.Release(a)
	r.Acquire(b) // b must be dragged to a's release time
	if b.Now != 1000 {
		t.Fatalf("resource clock not propagated: %d", b.Now)
	}
	if b.local.LockWaitNS != 1000 {
		t.Fatalf("lock wait not accounted: %d", b.local.LockWaitNS)
	}
	r.Release(b)
}

func TestBankQueueingLimitsParallelism(t *testing.T) {
	// A bank serves BankServiceNS of media work per flush; two workers
	// hammering one line are latency-bound (reflushes), not bandwidth
	// bound, so they must NOT serialize...
	d := New(Config{Size: 1 << 20})
	a, b := d.NewCtx(), d.NewCtx()
	for i := 0; i < 100; i++ {
		a.FlushU64(CatMeta, 0)
		b.FlushU64(CatMeta, 0)
	}
	solo := func() int64 {
		dd := New(Config{Size: 1 << 20})
		c := dd.NewCtx()
		for i := 0; i < 100; i++ {
			c.FlushU64(CatMeta, 0)
		}
		return c.Now
	}()
	if a.Now > 2*solo {
		t.Fatalf("latency-bound workers over-serialized: a=%d solo=%d", a.Now, solo)
	}
	// ...but 24 workers all flushing lines of the same bank exceed its
	// service bandwidth and must queue.
	d2 := New(Config{Size: 1 << 20})
	var worst int64
	for w := 0; w < 24; w++ {
		c := d2.NewCtx()
		for i := 0; i < 100; i++ {
			c.FlushU64(CatMeta, PAddr((i%8)*defaultBanks*LineSize)) // distinct lines, one bank
		}
		if c.Now > worst {
			worst = c.Now
		}
		if c.Local().BankWaitNS > 0 && w > 8 {
			// queueing observed; good
		}
	}
	if worst <= solo {
		t.Fatalf("bandwidth saturation invisible: worst=%d solo=%d", worst, solo)
	}
}

func TestStatsReset(t *testing.T) {
	d := New(Config{Size: 1 << 16, TraceFlushes: 8})
	c := d.NewCtx()
	c.FlushU64(CatMeta, 0)
	c.Merge()
	d.ResetStats()
	if s := d.Stats(); s.Flushes != 0 || len(d.FlushTrace()) != 0 {
		t.Fatal("reset did not clear stats/trace")
	}
}

func TestReflushRatio(t *testing.T) {
	s := Stats{Flushes: 10, Reflushes: 4}
	if s.ReflushRatio() != 0.4 {
		t.Fatal("ratio wrong")
	}
	var z Stats
	if z.ReflushRatio() != 0 {
		t.Fatal("empty ratio must be 0")
	}
}

func TestModeString(t *testing.T) {
	if ModeADR.String() != "ADR" || ModeEADR.String() != "eADR" {
		t.Fatal("mode strings")
	}
	if CatMeta.String() != "FlushMeta" || CatWAL.String() != "FlushWAL" ||
		CatSearch.String() != "Search" || CatOther.String() != "Other" {
		t.Fatal("category strings")
	}
}

func TestStrictConcurrentLineNeighbors(t *testing.T) {
	// Two workers hammer adjacent words of the same cache line (and the
	// line straddle at a 64 B boundary) with interleaved flushes. The
	// device's span locking must keep this free of data races (run under
	// -race) and no store may be lost.
	dev := New(Config{Size: 1 << 20, Strict: true})
	const base = PAddr(4096)
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dev.NewCtx()
			// Worker w owns word base+8*w; workers 2,3 straddle the
			// 64 B boundary region at base+56.
			addr := base + PAddr(8*w)
			if w >= 2 {
				addr = base + 56 + PAddr(8*(w-2))
			}
			for i := 1; i <= iters; i++ {
				dev.WriteU64(addr, uint64(w)<<32|uint64(i))
				c.Flush(CatMeta, addr, 8)
				if i%64 == 0 {
					c.Fence()
				}
				if got := dev.ReadU64(addr); got != uint64(w)<<32|uint64(i) {
					t.Errorf("worker %d: read back %#x at iter %d", w, got, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		addr := base + PAddr(8*w)
		if w >= 2 {
			addr = base + 56 + PAddr(8*(w-2))
		}
		if got := dev.ReadU64(addr); got != uint64(w)<<32|iters {
			t.Fatalf("worker %d: final value %#x, want %#x", w, got, uint64(w)<<32|iters)
		}
	}
}

// TestSealU64: the seal is the low 16 bits of CRC-32C over the value's six
// bytes (the on-media format of every checkpoint and state word), it
// round-trips, a flipped bit breaks it, and computing it allocates nothing
// — it runs on every WAL checkpoint move.
func TestSealU64(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, v := range []uint64{1, 2, 0xFF, 1 << 20, 0xA5A5A5A5A5A5, 1<<48 - 1} {
		b := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40)}
		want := v | uint64(crc32.Checksum(b, table)&0xFFFF)<<48
		w := SealU64(v)
		if w != want {
			t.Fatalf("SealU64(%#x) = %#x, want %#x", v, w, want)
		}
		if got, ok := UnsealU64(w); !ok || got != v {
			t.Fatalf("UnsealU64(%#x) = %#x, %v", w, got, ok)
		}
		if _, ok := UnsealU64(w ^ 1<<7); ok {
			t.Fatalf("UnsealU64 accepted %#x with a flipped bit", w)
		}
	}
	if SealU64(0) != 0 {
		t.Fatal("zero must seal to zero")
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += SealU64(sink&0xFFFF + 1) }); n != 0 {
		t.Fatalf("SealU64 allocates %v objects per call", n)
	}
}

// TestFlipBits pins the one way an image is corrupted: the same seed flips
// the same bits, exactly n bits differ afterwards, and every one of them
// lies inside the ranges in a line that had been written.
func TestFlipBits(t *testing.T) {
	img := make([]byte, 64*LineSize)
	for _, line := range []int{3, 4, 10, 20} {
		img[line*LineSize+5] = 0xA5
	}
	ranges := []Range{
		{2 * LineSize, 6 * LineSize},        // lines 3 and 4 are written, 2 and 5 are not
		{20*LineSize + 8, 20*LineSize + 16}, // one word of a written line
		{30 * LineSize, 40 * LineSize},      // never written
	}
	allowed := func(bit uint64) bool {
		b := bit / 8
		return b/LineSize == 3 || b/LineSize == 4 || (b >= 20*LineSize+8 && b < 20*LineSize+16)
	}
	sites := map[uint64]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		n := 1 + int(seed%4)
		got := append([]byte(nil), img...)
		flipped := FlipBits(got, ranges, n, seed)
		if len(flipped) != n {
			t.Fatalf("seed %d: %d bits flipped, want %d", seed, len(flipped), n)
		}
		differ := 0
		for i := range got {
			differ += bits.OnesCount8(got[i] ^ img[i])
		}
		if differ != n {
			t.Fatalf("seed %d: %d bits differ, want %d", seed, differ, n)
		}
		for _, bit := range flipped {
			if !allowed(bit) {
				t.Fatalf("seed %d: bit %d (line %d) is outside the written lines of the ranges", seed, bit, bit/8/LineSize)
			}
			if (got[bit/8]^img[bit/8])&(1<<(bit%8)) == 0 {
				t.Fatalf("seed %d: reported bit %d did not change", seed, bit)
			}
			sites[bit] = true
		}
		again := append([]byte(nil), img...)
		if bits2 := FlipBits(again, ranges, n, seed); !slices.Equal(flipped, bits2) || !bytes.Equal(got, again) {
			t.Fatalf("seed %d: flipped %v, then %v", seed, flipped, bits2)
		}
	}
	if len(sites) < 100 {
		t.Errorf("200 seeds reached only %d distinct bits", len(sites))
	}
	var hit [3]bool // every candidate piece is reachable
	for bit := range sites {
		hit[map[uint64]int{3: 0, 4: 1, 20: 2}[bit/8/LineSize]] = true
	}
	if hit != [3]bool{true, true, true} {
		t.Errorf("pieces reached: %v, want lines 3, 4 and 20", hit)
	}
	if flipped := FlipBits(make([]byte, 4*LineSize), nil, 3, 1); len(flipped) != 0 {
		t.Errorf("flipped %v in an image nothing was written to", flipped)
	}
	whole := append([]byte(nil), img...)
	if flipped := FlipBits(whole, nil, 2, 9); len(flipped) != 2 {
		t.Errorf("no ranges: flipped %v, want 2 bits anywhere written", flipped)
	}
}
