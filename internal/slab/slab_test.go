package slab

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

const slabBase = pmem.PAddr(Size) // second 64K of the device

func newSlab(t *testing.T, class, stripes int) (*pmem.Device, *pmem.Ctx, *Slab) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 4 * Size, Strict: true})
	c := dev.NewCtx()
	s := Format(dev.Mem(), c, slabBase, class, stripes, true)
	return dev, c, s
}

// load opens the slab at slabBase and builds its bitmap: what recovery
// does to a slab something touches.
func load(dev *pmem.Device) (*Slab, error) {
	c := dev.NewCtx()
	s, err := Open(dev.Mem(), c, slabBase)
	if err == nil {
		s.Build(c)
	}
	return s, err
}

// TestOpenLeavesBitmapToBuild: Open reads the header and charges the
// per-slab constant; Build reads the bitmap, charges blocks/8 once, and
// writes nothing.
func TestOpenLeavesBitmapToBuild(t *testing.T) {
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	for _, idx := range []int{2, 9, s.Blocks - 1} {
		s.AllocBlock(c, idx, true)
	}
	c.Fence()
	dev.Crash()
	c = dev.NewCtx()
	s2, err := Open(dev.Mem(), c, slabBase)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Built() || c.Now != 20 {
		t.Fatalf("Open: built %v, charged %d ns; want unbuilt, 20", s2.Built(), c.Now)
	}
	image := string(dev.Bytes(slabBase, Size))
	before := c.Local()
	s2.Build(c)
	s2.Build(c)
	if got, want := c.Now-20, int64(s.Blocks)/8; got != want {
		t.Fatalf("two Builds charged %d ns, want one blocks/8 = %d", got, want)
	}
	if after := c.Local(); after.Flushes != before.Flushes || string(dev.Bytes(slabBase, Size)) != image {
		t.Fatal("Build wrote the slab")
	}
	if !s2.Built() || s2.Allocated != 3 || !s2.BlockAllocated(9) || s2.BlockAllocated(10) {
		t.Fatalf("built slab: %d allocated, want blocks 2, 9 and %d", s2.Allocated, s.Blocks-1)
	}
}

// TestUnbuiltSlabPanics: every method that reads or changes block states
// refuses an unbuilt slab, whose zero counters would read as all free.
func TestUnbuiltSlabPanics(t *testing.T) {
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	s.AllocBlock(c, s.Blocks-40, true)
	if err := s.MorphTo(c, sizeclass.Class(256), 6, true); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	c = dev.NewCtx()
	s2, err := Open(dev.Mem(), c, slabBase)
	if err != nil {
		t.Fatal(err)
	}
	old := s.OldIndices()[0]
	for name, fn := range map[string]func(){
		"BlockAllocated":    func() { s2.BlockAllocated(0) },
		"BlockReserved":     func() { s2.BlockReserved(0) },
		"Reserve":           func() { s2.Reserve(1, nil) },
		"Unreserve":         func() { s2.Unreserve(0) },
		"CommitAlloc":       func() { s2.CommitAlloc(c, 0, true) },
		"CommitFreeToCache": func() { s2.CommitFreeToCache(c, 0, true) },
		"AllocBlock":        func() { s2.AllocBlock(c, 0, true) },
		"FreeBlock":         func() { s2.FreeBlock(c, 0, true) },
		"FreeCount":         func() { s2.FreeCount() },
		"Usage":             func() { s2.Usage() },
		"UsageBelowMille":   func() { s2.UsageBelowMille(200) },
		"CanMorphTo":        func() { s2.CanMorphTo(sizeclass.Class(512), 6) },
		"SyncBitmap":        func() { s2.SyncBitmap(c) },
		"FreeOldBlock":      func() { _, _ = s2.FreeOldBlock(c, old, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an unbuilt slab did not panic", name)
				}
			}()
			fn()
		}()
	}
	pinned := 0
	for _, n := range s2.cntBlock {
		pinned += int(n)
	}
	if s2.CntSlab != 1 || pinned == 0 {
		t.Fatalf("the refused FreeOldBlock changed the index-table state: %d old blocks pinning %d", s2.CntSlab, pinned)
	}
	s2.Build(c)
	if _, err := s2.FreeOldBlock(c, old, true); err != nil || s2.Allocated != 0 {
		t.Fatalf("after Build: FreeOldBlock %v, %d allocated", err, s2.Allocated)
	}
}

// TestBuildPinsOldBlocks: a new-class block a live old block covers reads
// allocated after Build even when its bit is clear on media (the GC
// variant never flushes bitmap bits), so a later FreeOldBlock does not
// free it twice.
func TestBuildPinsOldBlocks(t *testing.T) {
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	s.AllocBlock(c, s.Blocks-40, true)
	if err := s.MorphTo(c, sizeclass.Class(256), 6, true); err != nil {
		t.Fatal(err)
	}
	var pinned []int
	for nb := 0; nb < s.Blocks; nb++ {
		if s.OverlapCount(nb) > 0 {
			pinned = append(pinned, nb)
			off := int(s.lay.Bit[nb])
			a := s.Base + pmem.PAddr(s.bitmapBase) + pmem.PAddr(off/8)
			dev.WriteU8(a, dev.ReadU8(a)&^(1<<(off%8)))
			c.FlushU64(pmem.CatMeta, a)
		}
	}
	if len(pinned) == 0 {
		t.Fatal("the old block pins no new block")
	}
	c.Fence()
	dev.Crash()
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range pinned {
		if !s2.BlockAllocated(nb) {
			t.Fatalf("new block %d, pinned by a live old block, reads free", nb)
		}
	}
	if s2.Allocated != len(pinned) {
		t.Fatalf("%d allocated, want the %d pinned blocks", s2.Allocated, len(pinned))
	}
}

// TestPersistedAllocatedMatchesBuild: on an unbuilt slab, checking one
// block reads what Build would make of it — the persisted bit, or a morph
// pin — and the checks and a later Build together charge Build's Blocks/8
// and no more. The slab is a slab_in with scattered allocated new-class
// blocks and pinned blocks whose bits were cleared on media, as the GC
// variant leaves them; the blocks are checked in random order, a random
// number of them (some twice), before the Build.
func TestPersistedAllocatedMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, c, s := newSlab(t, sizeclass.Class(64), 6)
		s.AllocBlock(c, s.Blocks-40, true)
		if err := s.MorphTo(c, sizeclass.Class(256), 6, true); err != nil {
			t.Fatal(err)
		}
		for nb := 0; nb < s.Blocks; nb++ {
			off := int(s.lay.Bit[nb])
			a := s.Base + pmem.PAddr(s.bitmapBase) + pmem.PAddr(off/8)
			switch {
			case s.OverlapCount(nb) > 0 && rng.Intn(2) == 0:
				dev.WriteU8(a, dev.ReadU8(a)&^(1<<(off%8)))
				c.FlushU64(pmem.CatMeta, a)
			case s.OverlapCount(nb) == 0 && rng.Intn(3) == 0:
				s.AllocBlock(c, nb, true)
			}
		}
		c.Fence()
		dev.Crash()

		c = dev.NewCtx()
		lazy, err := Open(dev.Mem(), c, slabBase)
		if err != nil {
			t.Fatal(err)
		}
		built, err := load(dev)
		if err != nil {
			t.Fatal(err)
		}
		start := c.Now
		checks := rng.Intn(2 * s.Blocks)
		for i := 0; i < checks; i++ {
			nb := rng.Intn(s.Blocks)
			if got, want := lazy.PersistedAllocated(c, nb), built.BlockAllocated(nb); got != want {
				t.Fatalf("seed %d: block %d checks as allocated=%v, Build makes it %v", seed, nb, got, want)
			}
			if lazy.Built() {
				t.Fatal("PersistedAllocated built the slab")
			}
		}
		if got, want := c.Now-start, int64(min(checks, s.Blocks/8)); got != want {
			t.Fatalf("seed %d: %d checks charged %d ns, want one per check up to Blocks/8 = %d", seed, checks, got, want)
		}
		lazy.Build(c)
		if got, want := c.Now-start, int64(s.Blocks)/8; got != want {
			t.Fatalf("seed %d: %d checks and a Build charged %d ns, want Build's Blocks/8 = %d", seed, checks, got, want)
		}
		for nb := 0; nb < s.Blocks; nb++ {
			if lazy.BlockAllocated(nb) != built.BlockAllocated(nb) {
				t.Fatalf("seed %d: block %d differs between a checked-then-built slab and a built one", seed, nb)
			}
		}
	}
}

func TestGeometrySanity(t *testing.T) {
	for class := 0; class < sizeclass.NumClasses(); class++ {
		for _, stripes := range []int{1, 4, 6, 8} {
			blocks, bitmapBase, dataOff := geometry(class, stripes)
			if blocks <= 0 {
				t.Fatalf("class %d: no blocks", class)
			}
			bsize := int(sizeclass.Size(class))
			if int(dataOff)+blocks*bsize > Size {
				t.Fatalf("class %d stripes %d: blocks overflow the slab", class, stripes)
			}
			if bitmapBase < pmem.LineSize || dataOff <= bitmapBase {
				t.Fatalf("class %d: bad layout bm=%d data=%d", class, bitmapBase, dataOff)
			}
			// Space efficiency: for small classes the metadata overhead
			// must stay low.
			if bsize <= 256 && float64(dataOff) > 0.08*Size {
				t.Fatalf("class %d (%dB): metadata overhead %d too large", class, bsize, dataOff)
			}
		}
	}
}

func TestFormatAllocFree(t *testing.T) {
	_, c, s := newSlab(t, sizeclass.Class(64), 6)
	if s.Allocated != 0 || s.FreeCount() != s.Blocks {
		t.Fatal("fresh slab must be empty")
	}
	s.AllocBlock(c, 0, true)
	s.AllocBlock(c, 5, true)
	if s.Allocated != 2 {
		t.Fatal("alloc count wrong")
	}
	s.FreeBlock(c, 0, true)
	if s.Allocated != 1 || s.bitTest(0) || !s.bitTest(5) {
		t.Fatal("free bookkeeping wrong")
	}
}

func TestDoubleAllocAndFreePanic(t *testing.T) {
	_, c, s := newSlab(t, 0, 6)
	s.AllocBlock(c, 3, true)
	for name, fn := range map[string]func(){
		"double alloc": func() { s.AllocBlock(c, 3, true) },
		"double free":  func() { s.FreeBlock(c, 4, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBlockAddrIndexRoundtrip(t *testing.T) {
	_, _, s := newSlab(t, sizeclass.Class(100), 6)
	f := func(raw uint16) bool {
		idx := int(raw) % s.Blocks
		return s.BlockIndex(s.BlockAddr(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if s.BlockIndex(s.Base) != -1 || s.BlockIndex(s.BlockAddr(0)+1) != -1 {
		t.Fatal("non-block addresses must map to -1")
	}
}

func TestConsecutiveAllocsAvoidReflush(t *testing.T) {
	reflushes := func(stripes int) uint64 {
		dev := pmem.New(pmem.Config{Size: 4 * Size})
		c := dev.NewCtx()
		s := Format(dev.Mem(), c, slabBase, sizeclass.Class(64), stripes, true)
		start := c.Local().Reflushes
		for i := 0; i < 64; i++ {
			s.AllocBlock(c, i, true)
		}
		return c.Local().Reflushes - start
	}
	if r := reflushes(6); r != 0 {
		t.Fatalf("interleaved bitmap reflushed %d times", r)
	}
	if r := reflushes(1); r < 50 {
		t.Fatalf("sequential bitmap should reflush nearly every alloc, got %d", r)
	}
}

func TestTakeFree(t *testing.T) {
	_, c, s := newSlab(t, sizeclass.Class(128), 6)
	got := s.Reserve(10, nil)
	if len(got) != 10 || s.Reserved != 10 {
		t.Fatalf("Reserve returned %d blocks", len(got))
	}
	for _, idx := range got {
		s.CommitAlloc(c, idx, true)
	}
	if s.Allocated != 10 || s.Reserved != 0 {
		t.Fatalf("commit bookkeeping wrong: a=%d r=%d", s.Allocated, s.Reserved)
	}
	seen := map[int]bool{}
	for _, idx := range got {
		if seen[idx] {
			t.Fatal("duplicate block from TakeFree")
		}
		seen[idx] = true
	}
	// Exhaustion: ask for more than remain.
	rest := s.Reserve(s.Blocks, nil)
	if len(rest) != s.Blocks-10 || s.FreeCount() != 0 {
		t.Fatalf("Reserve exhaustion wrong: %d", len(rest))
	}
	if more := s.Reserve(1, nil); len(more) != 0 {
		t.Fatal("full slab must yield no blocks")
	}
	// Unreserve returns blocks to the free pool.
	s.Unreserve(rest[0])
	if s.FreeCount() != 1 {
		t.Fatal("unreserve did not free")
	}
}

func TestLoadRebuildsVslab(t *testing.T) {
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	want := map[int]bool{}
	for _, idx := range []int{0, 7, 13, 100, s.Blocks - 1} {
		s.AllocBlock(c, idx, true)
		want[idx] = true
	}
	dev.Crash()
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Class != s.Class || s2.Blocks != s.Blocks || s2.DataOff != s.DataOff {
		t.Fatal("reloaded geometry differs")
	}
	if s2.Allocated != len(want) {
		t.Fatalf("reloaded alloc count %d, want %d", s2.Allocated, len(want))
	}
	for idx := range want {
		if !s2.bitTest(idx) {
			t.Fatalf("bit %d lost", idx)
		}
	}
}

func TestLoadBadMagic(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4 * Size})
	if _, err := load(dev); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestMorphBasicSmallToLarge(t *testing.T) {
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	// Allocate a few scattered blocks near the end (clear of the new
	// metadata region), emulating low occupancy.
	liveIdx := []int{s.Blocks - 1, s.Blocks - 10, s.Blocks - 33}
	for _, idx := range liveIdx {
		s.AllocBlock(c, idx, true)
	}
	oldAddrs := make([]pmem.PAddr, len(liveIdx))
	for i, idx := range liveIdx {
		oldAddrs[i] = s.BlockAddr(idx)
	}
	newClass := sizeclass.Class(256)
	if !s.CanMorphTo(newClass, s.Stripes()) {
		t.Fatal("slab should be morphable")
	}
	if err := s.MorphTo(c, newClass, s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	if s.Class != newClass || !s.IsSlabIn() || s.CntSlab != 3 {
		t.Fatalf("morph state wrong: class=%d cntSlab=%d", s.Class, s.CntSlab)
	}
	// Old blocks remain addressable and identified as old.
	for i, a := range oldAddrs {
		if got := s.OldBlockIndex(a); got != liveIdx[i] {
			t.Fatalf("old block %#x: index %d, want %d", a, got, liveIdx[i])
		}
	}
	// New blocks overlapping old live data must be marked allocated.
	for _, a := range oldAddrs {
		nb := int((int64(a) - int64(s.Base) - int64(s.DataOff)) / int64(s.BlockSize))
		if nb >= 0 && nb < s.Blocks && !s.bitTest(nb) {
			t.Fatalf("overlapped new block %d not allocated", nb)
		}
	}
	// Allocating from the morphed slab never returns overlapped space.
	taken := s.Reserve(s.Blocks, nil)
	for _, nb := range taken {
		lo := s.BlockAddr(nb)
		hi := lo + pmem.PAddr(s.BlockSize)
		for _, a := range oldAddrs {
			if a >= lo && a < hi {
				t.Fatalf("handed out block %d overlapping live old data", nb)
			}
		}
	}
	dev.Crash() // morph must be fully persistent
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Class != newClass || s2.CntSlab != 3 || s2.OldClass != sizeclass.Class(64) {
		t.Fatalf("morph lost in crash: %+v", s2)
	}
}

func TestMorphLargeToSmall(t *testing.T) {
	_, c, s := newSlab(t, sizeclass.Class(1024), 6)
	idx := s.Blocks - 2
	s.AllocBlock(c, idx, true)
	oldAddr := s.BlockAddr(idx)
	newClass := sizeclass.Class(64)
	if err := s.MorphTo(c, newClass, s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	// The 1024 B old block now spans many 64 B new blocks; all of them
	// must be unavailable.
	span := int(1024 / s.BlockSize)
	nb0 := int((int64(oldAddr) - int64(s.Base) - int64(s.DataOff)) / int64(s.BlockSize))
	cnt := 0
	for nb := nb0; nb < nb0+span+1 && nb < s.Blocks; nb++ {
		if nb >= 0 && s.bitTest(nb) {
			cnt++
		}
	}
	if cnt < span {
		t.Fatalf("only %d of ~%d overlapped blocks protected", cnt, span)
	}
	// Freeing the old block releases the overlapped new blocks.
	done, err := s.FreeOldBlock(c, idx, true)
	if err != nil || !done {
		t.Fatalf("FreeOldBlock: done=%v err=%v", done, err)
	}
	if s.IsSlabIn() || s.Allocated != 0 {
		t.Fatalf("slab_after should be fully free, allocated=%d", s.Allocated)
	}
}

func TestMorphRefusals(t *testing.T) {
	_, c, s := newSlab(t, sizeclass.Class(64), 6)
	// Block 0 lives at the data start, inside any plausible new header
	// region for a larger index table? Actually block 0 sits exactly at
	// DataOff; morphing to a class whose metadata needs more space than
	// DataOff must be refused.
	s.AllocBlock(c, 0, true)
	if s.CanMorphTo(sizeclass.Class(8), s.Stripes()) {
		// The 8 B class has a much larger bitmap; its dataOff exceeds the
		// 64 B class's, so block 0 overlaps the new metadata.
		t.Fatal("morph over live data must be refused")
	}
	if s.CanMorphTo(s.Class, s.Stripes()) {
		t.Fatal("morph to the same class must be refused")
	}
	if err := s.MorphTo(c, sizeclass.Class(8), s.Stripes(), true); err == nil {
		t.Fatal("MorphTo must fail when CanMorphTo is false")
	}
	// Already-morphed slabs cannot morph again.
	s.FreeBlock(c, 0, true)
	if err := s.MorphTo(c, sizeclass.Class(256), s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	// Note: CntSlab == 0 because no live blocks, so it is a regular slab
	// immediately; but OldClass persists until demotion. For a slab with
	// zero live old blocks the morph yields CntSlab=0; treat as regular.
	if s.CanMorphTo(sizeclass.Class(512), s.Stripes()) && s.OldClass >= 0 {
		t.Fatal("slab_in must not morph again")
	}
}

func TestFreeOldBlockUnknown(t *testing.T) {
	_, c, s := newSlab(t, sizeclass.Class(64), 6)
	s.AllocBlock(c, s.Blocks-1, true)
	if err := s.MorphTo(c, sizeclass.Class(256), s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FreeOldBlock(c, 1, true); err == nil {
		t.Fatal("freeing unknown old block must error")
	}
}

func TestMorphCrashUndoAtEachStep(t *testing.T) {
	// Crash after each flush during a morph; recovery must either undo
	// the morph entirely (flag 1/2) or land in the completed state. A morph
	// may lay the new bitmap out over another stripe count than the slab
	// was formatted with; the undo must bring the old count back with the
	// old geometry, whichever of the two the header line held at the cut.
	for _, st := range [][2]int{{6, 6}, {6, 1}, {1, 6}} {
		from, to := st[0], st[1]
		for cut := int64(1); cut < 20; cut++ {
			dev := pmem.New(pmem.Config{Size: 4 * Size, Strict: true})
			c := dev.NewCtx()
			s := Format(dev.Mem(), c, slabBase, sizeclass.Class(64), from, true)
			liveIdx := []int{s.Blocks - 1, s.Blocks - 5}
			for _, idx := range liveIdx {
				s.AllocBlock(c, idx, true)
			}
			oldClass := s.Class
			dev.CrashAfterFlushes(cut)
			_ = s.MorphTo(c, sizeclass.Class(256), to, true)
			completed := !dev.Crashed()
			dev.Crash()
			s2, err := load(dev)
			if err != nil {
				t.Fatalf("%d->%d stripes, cut=%d: %v", from, to, cut, err)
			}
			if completed {
				if s2.Class != sizeclass.Class(256) || s2.CntSlab != 2 || s2.Stripes() != to {
					t.Fatalf("%d->%d stripes, cut=%d: completed morph not recovered: %+v", from, to, cut, s2)
				}
			} else if s2.Class == oldClass {
				// Undone: the original allocation state must be intact.
				if s2.Allocated != 2 || !s2.bitTest(liveIdx[0]) || !s2.bitTest(liveIdx[1]) || s2.Stripes() != from {
					t.Fatalf("%d->%d stripes, cut=%d: undo lost blocks: allocated=%d, %d stripes", from, to, cut, s2.Allocated, s2.Stripes())
				}
				if s2.OldClass >= 0 || dev.ReadU32(slabBase+hFlag) != 0 {
					t.Fatalf("%d->%d stripes, cut=%d: undo left morph residue", from, to, cut)
				}
			} else {
				// Landed in the new class despite the cut: must be complete.
				if s2.CntSlab != 2 || s2.Stripes() != to {
					t.Fatalf("%d->%d stripes, cut=%d: torn morph visible: %+v", from, to, cut, s2)
				}
			}
			// Old blocks stay addressable under whichever geometry won.
			for _, idx := range liveIdx {
				a := slabBase + pmem.PAddr(s2.OldDataOff) + pmem.PAddr(idx)*64
				if s2.OldClass < 0 {
					a = s2.BlockAddr(idx)
				}
				if s2.OldClass >= 0 && s2.OldBlockIndex(a) != idx {
					t.Fatalf("%d->%d stripes, cut=%d: old block %d not in the index table", from, to, cut, idx)
				}
			}
		}
	}
}

// TestMorphKilledAtEachFlush is the same sweep with the process killed
// instead of the power cut: Open and Build run on the cache image as each flush of
// the morph completes, which holds the stores of the step under way — in
// step 3 the new class, data offset, stripe count and checksum, all in the
// header line, under a flag that still reads 2.
func TestMorphKilledAtEachFlush(t *testing.T) {
	for _, st := range [][2]int{{6, 6}, {6, 1}, {1, 6}} {
		from, to := st[0], st[1]
		var dev *pmem.Device
		var images [][]byte
		morphing := false
		dev = pmem.New(pmem.Config{Size: 4 * Size, Strict: true, Journal: true, OnJournal: func(int) {
			if morphing {
				images = append(images, append([]byte(nil), dev.Bytes(0, 4*Size)...))
			}
		}})
		c := dev.NewCtx()
		s := Format(dev.Mem(), c, slabBase, sizeclass.Class(64), from, true)
		liveIdx := []int{s.Blocks - 1, s.Blocks - 5}
		var addrs []pmem.PAddr
		for _, idx := range liveIdx {
			s.AllocBlock(c, idx, true)
			addrs = append(addrs, s.BlockAddr(idx))
		}
		morphing = true
		if err := s.MorphTo(c, sizeclass.Class(256), to, true); err != nil {
			t.Fatal(err)
		}
		if len(images) < 20 {
			t.Fatalf("%d->%d stripes: the morph issued only %d flushes", from, to, len(images))
		}
		for cut, img := range images {
			killed := pmem.New(pmem.Config{Size: 4 * Size})
			killed.Restore(img)
			s2, err := load(killed)
			if err != nil {
				t.Fatalf("%d->%d stripes, killed after flush %d: %v", from, to, cut+1, err)
			}
			for i, a := range addrs {
				switch {
				case s2.Class == sizeclass.Class(64) && s2.Stripes() == from && s2.OldClass < 0:
					if !s2.bitTest(liveIdx[i]) || s2.BlockAddr(liveIdx[i]) != a {
						t.Fatalf("%d->%d stripes, killed after flush %d: undo lost block %d", from, to, cut+1, liveIdx[i])
					}
				case s2.Class == sizeclass.Class(256) && s2.Stripes() == to:
					if s2.OldBlockIndex(a) != liveIdx[i] {
						t.Fatalf("%d->%d stripes, killed after flush %d: old block %d not in the index table", from, to, cut+1, liveIdx[i])
					}
				default:
					t.Fatalf("%d->%d stripes, killed after flush %d: class %d with %d stripes", from, to, cut+1, s2.Class, s2.Stripes())
				}
			}
		}
	}
}

// TestLoadMorphWithoutOldStripeCount: a morph written before the header
// recorded the old stripe count left the upper half of the entry-count
// word zero and never changed the slab's stripes; such a slab_in, and such
// a morph cut at flag 2, must load as before.
func TestLoadMorphWithoutOldStripeCount(t *testing.T) {
	for _, cut := range []int64{-1, 19} { // complete; inside step 3
		dev := pmem.New(pmem.Config{Size: 4 * Size, Strict: true})
		c := dev.NewCtx()
		s := Format(dev.Mem(), c, slabBase, sizeclass.Class(64), 6, true)
		last := s.Blocks - 1
		s.AllocBlock(c, last, true)
		dev.CrashAfterFlushes(cut)
		_ = s.MorphTo(c, sizeclass.Class(256), 6, true)
		dev.Crash()
		if cut > 0 {
			if flag, _ := pmem.UnsealU32(dev.ReadU32(slabBase + hFlag)); flag != flagStep2 {
				t.Fatalf("cut=%d lands at flag %d, want the cut inside step 3", cut, flag)
			}
		}
		dev.WriteU32(slabBase+hOldLive, dev.ReadU32(slabBase+hOldLive)&0xFFFF)
		s2, err := load(dev)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if s2.Stripes() != 6 {
			t.Fatalf("cut=%d: loaded %d stripes", cut, s2.Stripes())
		}
		if cut < 0 && (s2.OldClass != sizeclass.Class(64) || s2.CntSlab != 1) {
			t.Fatalf("cut=%d: old class %d with %d old blocks, want the slab_in", cut, s2.OldClass, s2.CntSlab)
		}
		if cut > 0 && (s2.OldClass >= 0 || !s2.bitTest(last)) {
			t.Fatalf("cut=%d: the morph was not undone", cut)
		}
	}
}

func TestMorphedSlabAllocFreeRandomized(t *testing.T) {
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	rng := rand.New(rand.NewSource(11))
	liveIdx := []int{s.Blocks - 1, s.Blocks - 7, s.Blocks - 20}
	for _, idx := range liveIdx {
		s.AllocBlock(c, idx, true)
	}
	if err := s.MorphTo(c, sizeclass.Class(320), s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	held := map[int]bool{}
	for op := 0; op < 2000; op++ {
		if rng.Intn(2) == 0 {
			got := s.Reserve(1, nil)
			if len(got) == 1 {
				if held[got[0]] {
					t.Fatal("block handed out twice")
				}
				s.CommitAlloc(c, got[0], true)
				held[got[0]] = true
			}
		} else if len(held) > 0 {
			for idx := range held {
				s.FreeBlock(c, idx, true)
				delete(held, idx)
				break
			}
		}
	}
	// Invariant: allocated == held + overlapped-by-old
	overlapped := 0
	for nb := 0; nb < s.Blocks; nb++ {
		if s.cntBlock[nb] > 0 {
			overlapped++
		}
	}
	if s.Allocated != len(held)+overlapped {
		t.Fatalf("allocated=%d held=%d overlapped=%d", s.Allocated, len(held), overlapped)
	}
	// Crash + reload preserves everything.
	dev.Crash()
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Allocated != s.Allocated || s2.CntSlab != 3 {
		t.Fatalf("reload mismatch: %d vs %d", s2.Allocated, s.Allocated)
	}
	// Free old blocks one by one; last one demotes the slab.
	for i, idx := range liveIdx {
		done, err := s2.FreeOldBlock(c, idx, true)
		if err != nil {
			t.Fatal(err)
		}
		if (i == len(liveIdx)-1) != done {
			t.Fatalf("demotion at wrong point: i=%d done=%v", i, done)
		}
	}
	if s2.OldClass != -1 {
		t.Fatal("slab_after must clear old class")
	}
	// And the demotion is persistent.
	dev.Crash()
	s3, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s3.OldClass != -1 || s3.IsSlabIn() {
		t.Fatal("demotion lost in crash")
	}
}

func TestSecondMorphAfterDemotion(t *testing.T) {
	// slab_after (with an index-table hole) must be able to morph again.
	dev, c, s := newSlab(t, sizeclass.Class(64), 6)
	idx := s.Blocks - 1
	s.AllocBlock(c, idx, true)
	if err := s.MorphTo(c, sizeclass.Class(256), s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FreeOldBlock(c, idx, true); err != nil {
		t.Fatal(err)
	}
	// Now a regular 256 B slab with an idxCap hole; allocate one block
	// high and morph once more.
	s.AllocBlock(c, s.Blocks-1, true)
	if err := s.MorphTo(c, sizeclass.Class(512), s.Stripes(), true); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Class != sizeclass.Class(512) || s2.CntSlab != 1 {
		t.Fatalf("second morph lost: %+v", s2)
	}
}

func TestGCVariantSkipsBitmapFlushes(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4 * Size})
	c := dev.NewCtx()
	s := Format(dev.Mem(), c, slabBase, sizeclass.Class(64), 6, false)
	before := c.Local().Flushes
	for i := 0; i < 100; i++ {
		s.AllocBlock(c, i, false)
	}
	if c.Local().Flushes != before {
		t.Fatal("GC variant must not flush bitmap updates")
	}
}

func TestStripeAssignmentMatchesMapping(t *testing.T) {
	_, _, s := newSlab(t, sizeclass.Class(64), 6)
	for i := 0; i < 32; i++ {
		if s.Geometry().Stripe(i) != i%6 {
			t.Fatalf("stripe of %d = %d", i, s.Geometry().Stripe(i))
		}
	}
}

func TestSyncBitmapPersistsVolatileTruth(t *testing.T) {
	// GC-variant shutdown: runtime never flushed bitmap updates; SyncBitmap
	// must make the persistent image match the volatile one.
	dev := pmem.New(pmem.Config{Size: 4 * Size, Strict: true})
	c := dev.NewCtx()
	s := Format(dev.Mem(), c, slabBase, sizeclass.Class(64), 6, false)
	want := map[int]bool{}
	for _, idx := range []int{1, 5, 99, s.Blocks - 1} {
		s.AllocBlock(c, idx, false) // no flush
		want[idx] = true
	}
	s.SyncBitmap(c)
	dev.Crash()
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Allocated != len(want) {
		t.Fatalf("synced bitmap lost state: %d vs %d", s2.Allocated, len(want))
	}
	for idx := range want {
		if !s2.BlockAllocated(idx) {
			t.Fatalf("bit %d lost", idx)
		}
	}
}

func TestReservedBitsTracking(t *testing.T) {
	_, c, s := newSlab(t, sizeclass.Class(64), 6)
	got := s.Reserve(3, nil)
	for _, idx := range got {
		if !s.BlockReserved(idx) || !s.BlockAllocated(idx) {
			t.Fatalf("reserved block %d not tracked", idx)
		}
	}
	s.CommitAlloc(c, got[0], true)
	if s.BlockReserved(got[0]) {
		t.Fatal("committed block still marked reserved")
	}
	s.Unreserve(got[1])
	if s.BlockReserved(got[1]) || s.BlockAllocated(got[1]) {
		t.Fatal("unreserved block still marked")
	}
	s.CommitFreeToCache(c, got[0], true)
	if !s.BlockReserved(got[0]) {
		t.Fatal("freed-to-cache block must be reserved")
	}
}

// TestDirtyMaskCoversEveryLegalBitmap: the write-back mask is one word, so
// no legal stripe count may spread a bitmap over more than 64 lines, and
// the bitmap must start on a line boundary for FlushDirty's arithmetic.
func TestDirtyMaskCoversEveryLegalBitmap(t *testing.T) {
	for stripes := 1; stripes <= 64; stripes++ {
		for class := 0; class < sizeclass.NumClasses(); class++ {
			_, bitmapBase, dataOff := geometry(class, stripes)
			if bitmapBase%pmem.LineSize != 0 {
				t.Fatalf("class %d, %d stripes: bitmap at %d is not line-aligned", class, stripes, bitmapBase)
			}
			if lines := (dataOff - bitmapBase + pmem.LineSize - 1) / pmem.LineSize; lines > 64 {
				t.Fatalf("class %d, %d stripes: bitmap spans %d lines", class, stripes, lines)
			}
		}
	}
}

// TestMarkDirtyFlushDirty: bits written without a flush reach the media
// exactly when FlushDirty runs, one flush per distinct line, in address
// order; the first mark after a flush reports the slab as newly dirty.
func TestMarkDirtyFlushDirty(t *testing.T) {
	dev, c, s := newSlab(t, 4, 6)
	idxs := s.Reserve(14, nil)
	lines := map[pmem.PAddr]bool{}
	var pool []byte
	for i, idx := range idxs {
		if first := s.MarkDirty(idx, &pool); first != (i == 0) {
			t.Fatalf("MarkDirty #%d reported first=%v", i, first)
		}
		s.CommitAlloc(c, idx, false)
		off := s.m.BitOffset(idx)
		lines[(s.Base+pmem.PAddr(s.bitmapBase)+pmem.PAddr(off/8))&^(pmem.LineSize-1)] = true
	}
	before := c.Local()
	s.FlushDirty(c, pool)
	after := c.Local()
	if got := int(after.Flushes - before.Flushes); got != len(lines) {
		t.Fatalf("%d flushes for %d distinct lines", got, len(lines))
	}
	if len(lines) > 1 && after.SeqFlushes-before.SeqFlushes != uint64(len(lines)-1) {
		t.Errorf("%d of %d flushes sequential: lines of one stripe group are adjacent and must go out in address order",
			after.SeqFlushes-before.SeqFlushes, len(lines))
	}
	if after.Fences != before.Fences {
		t.Fatal("FlushDirty fenced")
	}
	dev.Crash()
	s2, err := load(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs {
		if !s2.BlockAllocated(idx) {
			t.Fatalf("block %d lost after write-back", idx)
		}
	}
	if pool = pool[:0]; !s.MarkDirty(idxs[0], &pool) {
		t.Fatal("mask not cleared by FlushDirty")
	}
}

// mediaEqualsCache reports whether the slab's bitmap region reads the same
// on the media as in the cache image.
func mediaEqualsCache(dev *pmem.Device, s *Slab) bool {
	media := dev.Clone()
	media.Crash()
	r := s.BitmapRange()
	return string(dev.Bytes(r.Start, int(r.End-r.Start))) == string(media.Bytes(r.Start, int(r.End-r.Start)))
}

// TestFlushDirtySkipsNetZeroLines: a line whose deferred writes cancelled
// out — a block freed and allocated again, as a tcache does between two
// write-backs — is not flushed, a line that did change is, and either way
// the media ends up equal to the cache image.
func TestFlushDirtySkipsNetZeroLines(t *testing.T) {
	dev, c, s := newSlab(t, 4, 6)
	idxs := s.Reserve(12, nil)
	for _, idx := range idxs {
		s.CommitAlloc(c, idx, true) // eager: the media holds all twelve
	}
	c.Fence()
	// Toggle one block per stripe line back and forth; leave one freed.
	var pool []byte
	for i, idx := range idxs[:6] {
		s.MarkDirty(idx, &pool)
		s.CommitFreeToCache(c, idx, false)
		if i > 0 {
			s.MarkDirty(idx, &pool)
			s.CommitAlloc(c, idx, false)
		}
	}
	if len(pool) != 6*pmem.LineSize {
		t.Fatalf("pool holds %d bytes, want one line per dirty line", len(pool))
	}
	if n := bits.OnesCount64(s.DirtyLines()); n != 6 {
		t.Fatalf("%d dirty lines, want one per stripe", n)
	}
	before := c.Local().Flushes
	if !s.FlushDirty(c, pool) {
		t.Fatal("FlushDirty reported nothing flushed with a changed line")
	}
	if f := c.Local().Flushes - before; f != 1 {
		t.Fatalf("%d lines written back, want the one that changed", f)
	}
	if s.DirtyLines() != 0 || !mediaEqualsCache(dev, s) {
		t.Fatal("write-back left the media behind the cache image")
	}
	// Nothing but cancelled writes: no flush at all.
	pool = pool[:0]
	s.MarkDirty(idxs[7], &pool)
	s.CommitFreeToCache(c, idxs[7], false)
	s.MarkDirty(idxs[7], &pool)
	s.CommitAlloc(c, idxs[7], false)
	before = c.Local().Flushes
	if s.FlushDirty(c, pool) || c.Local().Flushes != before {
		t.Fatal("FlushDirty flushed a line whose bytes are what the media holds")
	}
	if !mediaEqualsCache(dev, s) {
		t.Fatal("media differs from the cache image")
	}
}

// TestEagerFlushCleansDirtyLine: an eager flush of a line that holds
// deferred bits (a block_before's demotion does one) carries them to the
// media, so the line's snapshot is void. Keeping it would let a later
// write-back compare against bytes the media no longer holds and skip a
// line that differs.
func TestEagerFlushCleansDirtyLine(t *testing.T) {
	dev, c, s := newSlab(t, 4, 1) // one stripe: every bit in the first line
	a, b := 3, 5
	var pool []byte
	s.AllocBlock(c, b, true) // media: {b}
	s.MarkDirty(a, &pool)    // snapshot {b}
	s.AllocBlock(c, a, false)
	s.FreeBlock(c, b, true) // eager: media {a}, and the line is clean
	if s.DirtyLines() != 0 {
		t.Fatal("line still dirty after an eager flush of it")
	}
	s.MarkDirty(a, &pool)
	s.FreeBlock(c, a, false)
	s.MarkDirty(b, &pool)
	s.AllocBlock(c, b, false) // cache image {b}: what the void snapshot held
	if !s.FlushDirty(c, pool) {
		t.Fatal("FlushDirty skipped a line that differs from the media")
	}
	if !mediaEqualsCache(dev, s) {
		t.Fatal("media differs from the cache image")
	}
}
