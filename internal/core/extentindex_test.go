package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
)

// openIndexed opens two clones of dev with opts: eager has every live
// record given its extent entry through IndexAll (uncharged), the state an
// eager rebuild leaves; lazy is left as Open left it.
func openIndexed(t *testing.T, dev *pmem.Device, opts Options) (eager, lazy *Heap) {
	t.Helper()
	var err error
	if eager, _, err = Open(dev.Clone(), opts); err != nil {
		t.Fatal(err)
	}
	eager.large.IndexAll()
	if lazy, _, err = Open(dev.Clone(), opts); err != nil {
		t.Fatal(err)
	}
	return eager, lazy
}

// TestOpenIndexesOnlyTouchedExtents: a crashed heap gives an extent entry
// to the records recovery frees and to no other. Six rooted extents and a
// few slabs survive a clean close; the session that crashes then leaves
// one extent for recovery to free. On NVAlloc-LOG it is a MallocTo cut
// between its record and its slot persist, which replay's last publish
// entry frees; on NVAlloc-GC it is an extent nothing points to, which the
// leak sweep frees.
func TestOpenIndexesOnlyTouchedExtents(t *testing.T) {
	const kept = 6
	// prepared formats a heap with the kept extents, closes it cleanly and
	// reopens it with one thread on it.
	prepared := func(v Variant) (*pmem.Device, *Heap, *Thread) {
		dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
		h, err := Create(dev, DefaultOptions(v))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		for i := 0; i < kept; i++ {
			if _, err := alloc.MallocTo(th, h.RootSlot(i), uint64(40+i*100)<<10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			if _, err := alloc.MallocTo(th, h.RootSlot(kept+1+i), uint64(32<<(i%6))); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if h, _, err = Open(dev, Options{}); err != nil {
			t.Fatal(err)
		}
		return dev, h, h.NewThread().(*Thread)
	}
	check := func(t *testing.T, dev *pmem.Device, freed pmem.PAddr) {
		t.Helper()
		h, _, err := Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := h.Recovery()
		if rep.ExtentsIndexed != 1 || h.large.Indexed() != 1 {
			t.Fatalf("Open indexed %d extents (reported %d), want only the one recovery freed", h.large.Indexed(), rep.ExtentsIndexed)
		}
		if _, live := h.large.Live(freed); live {
			t.Fatalf("extent %#x, which recovery frees, is live", freed)
		}
		for i := 0; i < kept; i++ {
			p := pmem.PAddr(dev.ReadU64(h.RootSlot(i)))
			if size, live := h.large.Live(p); !live || size != uint64(40+i*100)<<10 {
				t.Fatalf("rooted extent %#x: live %v, size %d", p, live, size)
			}
		}
	}

	t.Run("LOG", func(t *testing.T) {
		// The MallocTo's last two flushes are its slot persist and the
		// checkpoint that retires its entry; cut both off.
		_, h, th := prepared(LOG)
		f0 := th.Ctx().Local().Flushes
		if _, err := alloc.MallocTo(th, h.RootSlot(kept), 64<<10); err != nil {
			t.Fatal(err)
		}
		flushes := th.Ctx().Local().Flushes - f0

		dev, h, th := prepared(LOG)
		dev.CrashAfterFlushes(int64(flushes) - 2)
		p, err := alloc.MallocTo(th, h.RootSlot(kept), 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		th.Ctx().Merge()
		dev.Crash()
		if got := pmem.PAddr(dev.ReadU64(h.RootSlot(kept))); got != pmem.Null {
			t.Fatalf("root slot holds %#x after the cut, want the publish dropped", got)
		}
		check(t, dev, p)
	})
	t.Run("GC", func(t *testing.T) {
		dev, _, th := prepared(GC)
		p, err := th.Malloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		th.Ctx().Merge()
		dev.Crash()
		check(t, dev, p)
	})
}

// TestFirstExtentFreeChargesOnce: the first free of a recovered extent and
// the first retirement of a recovered slab each charge the freeing thread
// 30 ns of search more than the same op on a copy whose records were all
// indexed at open; an extent carved after open costs the same on both. A
// second free of a recovered extent, and a free of an address inside one
// that is not its start, fail on both and index nothing.
func TestFirstExtentFreeChargesOnce(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 1           // every free reaches the slab of the one arena
	opts.NoExtentCache = true // a retired slab goes straight back to the global pool
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	var big []pmem.PAddr
	for i := 0; i < 3; i++ {
		p, err := th.Malloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		big = append(big, p)
	}
	// A slab and a bit of 2 KiB blocks: the first slab is retired once
	// every block of it is back, the second is the spare it leaves.
	per := slab.BlocksPerSlab(sizeclass.Class(2048), h.lay.Bitmap)
	var blocks []pmem.PAddr
	for i := 0; i < per+4; i++ {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, p)
	}
	retired := blocks[0] &^ (slab.Size - 1)
	var full []pmem.PAddr
	for _, p := range blocks {
		if p&^(slab.Size-1) == retired {
			full = append(full, p)
		}
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	eager, lazy := openIndexed(t, dev, Options{NoExtentCache: true})
	if n := lazy.large.Indexed(); n != 0 {
		t.Fatalf("a clean open indexed %d extents", n)
	}
	et, lt := eager.NewThread().(*Thread), lazy.NewThread().(*Thread)
	type op func(th *Thread) (pmem.PAddr, error)
	free := func(p pmem.PAddr) op {
		return func(th *Thread) (pmem.PAddr, error) { return pmem.Null, th.Free(p) }
	}
	var carved pmem.PAddr
	ops := []struct {
		name    string
		do      op
		fails   bool
		indexed int64 // records the op gives an entry on the lazy copy
	}{
		{"free of a recovered extent", free(big[0]), false, 1},
		{"free of another", free(big[1]), false, 1},
		{"malloc after open", func(th *Thread) (pmem.PAddr, error) { return th.Malloc(64 << 10) }, false, 0},
		{"free of the extent carved after open", func(th *Thread) (pmem.PAddr, error) { return pmem.Null, th.Free(carved) }, false, 0},
		{"second free of a recovered extent", free(big[0]), true, 0},
		{"free inside a recovered extent", free(big[2] + extent.PageSize), true, 0},
	}
	for _, o := range ops {
		search := func(th *Thread) (pmem.PAddr, int64) {
			before := th.Ctx().Local().CatNS[pmem.CatSearch]
			p, err := o.do(th)
			if (err != nil) != o.fails {
				t.Fatalf("%s: error %v, want failure %v", o.name, err, o.fails)
			}
			return p, th.Ctx().Local().CatNS[pmem.CatSearch] - before
		}
		indexed := lazy.large.Indexed()
		pe, nsEager := search(et)
		pl, nsLazy := search(lt)
		if pe != pl {
			t.Fatalf("%s: %#x on the lazy copy, %#x on the eager one", o.name, pl, pe)
		}
		if pl != pmem.Null {
			carved = pl
		}
		if got := int64(lazy.large.Indexed() - indexed); got != o.indexed {
			t.Fatalf("%s: indexed %d records, want %d", o.name, got, o.indexed)
		}
		if got := nsLazy - nsEager; got != 30*o.indexed {
			t.Errorf("%s: the lazy copy charged %d ns more search, want %d", o.name, got, 30*o.indexed)
		}
	}
	if _, live := lazy.large.Live(big[2]); !live {
		t.Fatal("a free inside the extent released it")
	}

	// Every block of the full slab comes back; the thread's close drains
	// them into the slab, which is retired, and its record is indexed.
	search := func(h *Heap, th *Thread) int64 {
		th.Ctx().Merge() // Close merges what the thread charges from here on
		before := h.dev.Stats().CatNS[pmem.CatSearch]
		for _, p := range full {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		return h.dev.Stats().CatNS[pmem.CatSearch] - before
	}
	indexed := lazy.large.Indexed()
	nsEager, nsLazy := search(eager, et), search(lazy, lt)
	for _, h := range []*Heap{eager, lazy} {
		if h.slabs.Lookup(retired) != nil {
			t.Fatalf("slab %#x not retired", retired)
		}
	}
	if got := lazy.large.Indexed() - indexed; got != 1 {
		t.Fatalf("retiring the slab indexed %d records, want its own", got)
	}
	if got := nsLazy - nsEager; got != 30 {
		t.Errorf("retiring a recovered slab charged %d ns more search on the lazy copy, want 30", got)
	}
}

// TestLazyExtentIndexMatchesEager: one crashed image, opened twice. One
// copy has every live record indexed before anything runs; the other
// indexes a record when a free first needs it. The same 10 000 mixed small
// and large mallocs and frees from two threads — recovered objects freed
// among them, slabs retired as they empty — return the same addresses on
// both, and both end with the same Used, Peak and extent set.
func TestLazyExtentIndexMatchesEager(t *testing.T) {
	sizes := []uint64{32, 64, 128, 256, 512, 1024, 2048, 4096, 24 << 10, 64 << 10, 200 << 10, 600 << 10}
	for _, v := range []Variant{LOG, GC} {
		t.Run(v.String(), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
			h, err := Create(dev, DefaultOptions(v))
			if err != nil {
				t.Fatal(err)
			}
			// Every live object's address sits in a rooted table, so the
			// GC variant's sweep keeps what the sessions hold.
			th := h.NewThread()
			table, err := alloc.MallocTo(th, h.RootSlot(0), 512<<10)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(28))
			var live []pmem.PAddr
			note := func(th alloc.Thread, k int) {
				th.Ctx().PersistU64(pmem.CatOther, table+pmem.PAddr(8*k), uint64(live[k]))
			}
			session := func(th alloc.Thread, ops int) {
				for i := 0; i < ops; i++ {
					if len(live) > 0 && rng.Intn(10) < 4 {
						k := rng.Intn(len(live))
						if err := th.Free(live[k]); err != nil {
							t.Fatal(err)
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						if k < len(live) {
							note(th, k)
						}
						th.Ctx().PersistU64(pmem.CatOther, table+pmem.PAddr(8*len(live)), 0)
						continue
					}
					p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
					note(th, len(live)-1)
				}
			}
			session(th, 3000)
			th.Close()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if h, _, err = Open(dev, Options{}); err != nil {
				t.Fatal(err)
			}
			th = h.NewThread()
			session(th, 300)
			th.Ctx().Merge()
			dev.Crash()

			eager, lazy := openIndexed(t, dev, Options{})
			if n, recs := lazy.large.Indexed(), lazy.large.Global().Len(); n >= recs {
				t.Fatalf("Open indexed %d of %d records: nothing is left to index on first use", n, recs)
			}
			run := func(h *Heap) []pmem.PAddr {
				rng := rand.New(rand.NewSource(29))
				ths := []alloc.Thread{h.NewThread(), h.NewThread()}
				live := append([]pmem.PAddr(nil), live...)
				var got []pmem.PAddr
				for i := 0; i < 10000; i++ {
					th := ths[i%2]
					if len(live) > 0 && rng.Intn(10) < 5 {
						k := rng.Intn(len(live))
						if err := th.Free(live[k]); err != nil {
							t.Fatalf("op %d: free %#x: %v", i, live[k], err)
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						continue
					}
					p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					got = append(got, p)
					live = append(live, p)
				}
				for _, th := range ths {
					th.Close()
				}
				return got
			}
			a, b := run(eager), run(lazy)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("malloc %d: %#x with every record indexed at open, %#x indexed on first use", i, a[i], b[i])
				}
			}
			if lazy.large.Indexed() == 0 {
				t.Fatal("the ops freed no recovered extent")
			}
			if eu, lu := eager.Used(), lazy.Used(); eu != lu {
				t.Fatalf("Used %d on the eager copy, %d on the lazy one", eu, lu)
			}
			if ep, lp := eager.Peak(), lazy.Peak(); ep != lp {
				t.Fatalf("Peak %d on the eager copy, %d on the lazy one", ep, lp)
			}
			extents := func(h *Heap) (out []Object) {
				h.large.Each(func(addr pmem.PAddr, size uint64) { out = append(out, Object{Addr: addr, Size: size}) })
				slices.SortFunc(out, func(x, y Object) int { return cmp.Compare(x.Addr, y.Addr) })
				return out
			}
			if ea, la := extents(eager), extents(lazy); !slices.Equal(ea, la) {
				t.Fatalf("%d extents on the eager copy, %d on the lazy one, or different ones", len(ea), len(la))
			}
		})
	}
}
