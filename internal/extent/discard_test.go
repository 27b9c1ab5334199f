//go:build linux

package extent

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"nvalloc/internal/blog"
	"nvalloc/internal/pmem"
)

// newDirect builds an allocator on a direct device whose contexts read
// clock: file-backed when path is set, anonymous otherwise.
func newDirect(t *testing.T, path string, clock func() int64, tiers Tiers) (*pmem.DirectDev, *Allocator) {
	t.Helper()
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20, Path: path, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	bk := blog.New(dev.Mem(), logBase, logSize, 6)
	a := New(dev, bk, Config{
		HeapBase: heapBase,
		HeapEnd:  pmem.PAddr(dev.Size()),
		BreakPtr: brkPtr,
	}, tiers)
	return dev, a
}

// fileBlocks returns the 512-byte blocks the file at path holds.
func fileBlocks(t *testing.T, path string) int64 {
	t.Helper()
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		t.Fatal(err)
	}
	return st.Blocks
}

// TestDecayGivesDirectPagesBack: on a file-backed direct device a freed
// extent that has aged a full window is demoted by the next verb that
// crosses an epoch, and the demotion gives its pages back: Used falls by
// the extent's size, the range reads zero, and the file holds fewer
// blocks.
func TestDecayGivesDirectPagesBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap")
	var clock atomic.Int64
	dev, a := newDirect(t, path, clock.Load, Tiers{})
	c := dev.NewCtx()
	alloc := func(size uint64) pmem.PAddr {
		p, err := a.Alloc(c, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const size = 2 << 20
	p := alloc(size)
	alloc(64 << 10) // keeps p and q apart, so they cannot coalesce
	q := alloc(64 << 10)
	for off := 0; off < size; off += PageSize {
		dev.WriteU64(p+pmem.PAddr(off), 0xA5A5A5A5A5A5A5A5)
	}
	if err := a.Free(c, 0, p, false); err != nil {
		t.Fatal(err)
	}
	used, blocks := a.Used(), fileBlocks(t, path)

	clock.Store(DecayWindowNS)
	if err := a.Free(c, 0, q, false); err != nil {
		t.Fatal(err)
	}
	if got := a.Used(); got != used-size {
		t.Errorf("Used %d after a window, want %d: the aged extent's %d bytes given back", got, used-size, size)
	}
	for i, b := range dev.Bytes(p, size) {
		if b != 0 {
			t.Fatalf("byte %d of the demoted extent reads %#x, want 0", i, b)
		}
	}
	if got := fileBlocks(t, path); got > blocks-size/512 {
		t.Errorf("heap file holds %d blocks after the demotion, %d before: want %d fewer", got, blocks, size/512)
	}
}

// TestDirectDecayStress: four workers allocate, stamp and free extents of
// the sizes a large-value store holds, all through the global pool, while a
// fast clock runs a decay pass every few verbs and discards the pages of
// what aged out. No live extent may lose a stamp.
func TestDirectDecayStress(t *testing.T) {
	var clock atomic.Int64
	dev, a := newDirect(t, "", func() int64 { return clock.Add(DecayEpochNS / 16) }, Tiers{})
	const workers = 4
	rounds := 600
	if testing.Short() {
		rounds = 300
	}
	type ext struct {
		addr pmem.PAddr
		size uint64
		tag  uint64
	}
	stamp := func(e ext) {
		for off := uint64(0); off < e.size; off += PageSize {
			dev.WriteU64(e.addr+pmem.PAddr(off), e.tag+off)
		}
	}
	intact := func(e ext) bool {
		for off := uint64(0); off < e.size; off += PageSize {
			if dev.ReadU64(e.addr+pmem.PAddr(off)) != e.tag+off {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dev.NewCtx()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []ext
			for i := 0; i < rounds; i++ {
				if len(live) < 12 && rng.Intn(3) != 0 {
					size := uint64(36<<10 + rng.Intn(97<<10))
					p, err := a.Alloc(c, w, size)
					if err != nil {
						errs <- err.Error()
						return
					}
					size, _ = a.Live(p)
					e := ext{p, size, uint64(w)<<56 | uint64(i)<<32}
					stamp(e)
					live = append(live, e)
					continue
				}
				if len(live) == 0 {
					continue
				}
				j := rng.Intn(len(live))
				e := live[j]
				if !intact(e) {
					errs <- "a live extent lost its stamps"
					return
				}
				if err := a.Free(c, w, e.addr, false); err != nil {
					errs <- err.Error()
					return
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for _, e := range live {
				if !intact(e) {
					errs <- "a live extent lost its stamps"
					return
				}
				if err := a.Free(c, w, e.addr, false); err != nil {
					errs <- err.Error()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if passes := a.pool.decays; passes < 100 {
		t.Errorf("%d decay passes, want 100 or more", passes)
	}
	// Everything is free; once it has aged a window, the next pass gives
	// all of it back.
	clock.Add(DecayWindowNS)
	c := dev.NewCtx()
	a.pool.lock(c)
	a.pool.maybeDecay(c)
	a.pool.unlock(c)
	if rec := a.pool.reclaimedBytes.Load(); rec != 0 {
		t.Errorf("%d bytes still reclaimed a window after the last free", rec)
	}
}

// TestDecayPassAllocatesNothing: a decay pass runs inside whichever verb
// crosses an epoch, so once the free lists have reached their working size
// a round of carves and releases around a pass that demotes extents
// allocates nothing: not the pass, and not the carves that split what it
// demoted. Carve and Release write no record, so the bookkeeper's own
// allocations stay out of the count.
func TestDecayPassAllocatesNothing(t *testing.T) {
	var clock atomic.Int64
	dev, a := newDirect(t, "", clock.Load, Tiers{})
	c := dev.NewCtx()
	const n = 32
	var ps [n]pmem.PAddr
	release := func(first int) {
		for i := first; i < n; i += 2 {
			if err := a.Release(c, 0, ps[i], false); err != nil {
				t.Fatal(err)
			}
		}
	}
	round := func() (mallocs uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range ps {
			p, err := a.Carve(c, 0, 64<<10, false)
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		release(0) // every other extent stays apart from its neighbours
		clock.Add(2 * DecayWindowNS)
		a.pool.lock(c)
		a.pool.maybeDecay(c)
		a.pool.unlock(c)
		release(1)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	round() // the free lists and the spare headers and nodes reach their working size
	if rec := a.pool.reclaimedBytes.Load(); rec == 0 {
		t.Fatal("nothing reclaimed to demote in the next round")
	}
	for r := 1; r <= 7; r++ {
		decays := a.pool.decays
		if m := round(); m != 0 || a.pool.decays != decays+1 {
			t.Errorf("round %d: %d decay passes, %d allocations, want 1 pass and 0 allocations", r, a.pool.decays-decays, m)
		}
		if rec := a.pool.reclaimedBytes.Load(); rec != n/2*64<<10 {
			t.Errorf("round %d: %d bytes reclaimed after the round, want the %d its last releases left", r, rec, n/2*64<<10)
		}
	}
}
