package core

import (
	"math/rand"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/tcache"
)

// TestSlabStateUnderArenaLock runs each variant's small path from four
// threads on two arenas — mallocs, frees handed to a thread of the other
// arena, forced remote-free drains, publishes that replace and delete a
// root slot, and reservations given back — while a reader walks every slab
// through BlockAllocated, Objects, SlabUtilization and LayoutCensus. The
// owner arena's resource is the only lock on a slab, so under the race
// detector a writer or reader that skipped it would race with the rest.
func TestSlabStateUnderArenaLock(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		t.Run(v.String(), func(t *testing.T) { slabStateUnderArenaLock(t, v) })
	}
}

func slabStateUnderArenaLock(t *testing.T, v Variant) {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	opts := DefaultOptions(v)
	opts.Arenas = 2
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.LayoutCensus()
			h.SlabUtilization()
			h.Objects(func(o Object) bool {
				if o.Slab {
					h.BlockAllocated(o.Addr)
				}
				return true
			})
		}
	}()

	const workers, rounds, batch = 4, 150, 24
	sizes := []uint64{64, 256, 1024}
	// handoff[w] carries blocks to worker w from worker w-1, whose thread
	// NewThread bound to the other arena. Each channel holds every batch
	// its sender makes, so no send blocks.
	handoff := make([]chan []pmem.PAddr, workers)
	for w := range handoff {
		handoff[w] = make(chan []pmem.PAddr, rounds)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := h.NewThread().(*Thread)
		wg.Add(1)
		go func(w int, th *Thread) {
			defer wg.Done()
			defer th.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			size := func() uint64 { return sizes[rng.Intn(len(sizes))] }
			free := func(p pmem.PAddr) {
				if err := th.Free(p); err != nil {
					t.Errorf("worker %d: free %#x: %v", w, p, err)
				}
			}
			slot := h.RootSlot(w)
			var live pmem.PAddr
			for r := 0; r < rounds; r++ {
				out := make([]pmem.PAddr, 0, batch)
				for i := 0; i < batch; i++ {
					p, err := th.Malloc(size())
					if err != nil {
						t.Errorf("worker %d: malloc: %v", w, err)
						continue
					}
					out = append(out, p)
				}
				half := len(out) / 2
				for _, p := range out[:half] {
					free(p)
				}
				handoff[(w+1)%workers] <- out[half:]
				for _, p := range <-handoff[w] {
					free(p)
				}
				if r%4 == 0 {
					th.Flush()
				}

				n, err := th.Reserve(size())
				if err != nil {
					t.Errorf("worker %d: reserve: %v", w, err)
					continue
				}
				if r%5 == 4 && live != pmem.Null {
					err = th.Publish(slot, pmem.Null, live)
					live = pmem.Null
					if uerr := th.Unreserve(n); uerr != nil {
						t.Errorf("worker %d: unreserve: %v", w, uerr)
					}
				} else {
					err = th.Publish(slot, n, live)
					live = n
				}
				if err != nil {
					t.Errorf("worker %d: publish: %v", w, err)
				}
			}
			if live != pmem.Null {
				if err := th.Publish(slot, pmem.Null, live); err != nil {
					t.Errorf("worker %d: publish: %v", w, err)
				}
			}
		}(w, th)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	h.Objects(func(o Object) bool {
		if o.Slab {
			t.Errorf("small block %#x still allocated after every thread freed all it held and closed", o.Addr)
		}
		return true
	})
}

// slabInAround leaves a slab_in owned by th's arena whose one old-class
// block, keep, is published under slot: it fills a slab of 1024-byte
// blocks, empties it around keep through short-lived threads (whose Close
// returns what they cached), and morphs it with a 1536-byte malloc, whose
// block it returns as fresh.
func slabInAround(t *testing.T, h *Heap, th *Thread, slot pmem.PAddr) (keep, fresh pmem.PAddr) {
	t.Helper()
	keep, err := alloc.MallocTo(th, slot, 1024)
	if err != nil {
		t.Fatal(err)
	}
	x := keep &^ (slab.Size - 1)
	xs := h.slabs.Lookup(x)
	var inX []pmem.PAddr
	for xs.Reserved > 0 || th.arena.onFreelist(xs) {
		p, err := th.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if p&^(slab.Size-1) == x {
			inX = append(inX, p)
		}
	}
	for len(inX) > 0 {
		n := min(len(inX), 16)
		f := h.NewThread()
		for _, p := range inX[:n] {
			if err := f.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		inX = inX[n:]
	}
	if fresh, err = th.Malloc(1536); err != nil {
		t.Fatal(err)
	}
	if xs.OldBlockIndex(keep) < 0 || fresh&^(slab.Size-1) != x {
		t.Fatal("setup: the emptied slab did not morph around the published block")
	}
	return keep, fresh
}

// TestDrainRetryFreesForeignBlockToItsSlab: a thread buffers the free of a
// block of another arena's slab_in, then frees the slab's last old-class
// block, which demotes the slab. The drain finds the buffered entry's
// geometry gone and retries it unbuffered. The retry must return the block
// to its owner's slab: a thread's cache holds blocks of its own arena
// only, because a refill commits what it pops under its own arena's
// resource, which is the slab lock of that arena's slabs alone.
func TestDrainRetryFreesForeignBlockToItsSlab(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		t.Run(v.String(), func(t *testing.T) {
			_, h := newHeap(t, v, func(o *Options) { o.Arenas = 2 })
			a := h.NewThread().(*Thread) // arena 0
			b := h.NewThread().(*Thread) // arena 1
			defer a.Close()
			defer b.Close()
			keep, fresh := slabInAround(t, h, a, h.RootSlot(0))
			if err := b.Free(fresh); err != nil {
				t.Fatal(err)
			}
			if b.remote[0].Len() != 1 {
				t.Fatal("setup: the cross-arena free was not buffered")
			}
			if err := alloc.FreeFrom(b, h.RootSlot(0)); err != nil {
				t.Fatal(err)
			}
			if h.slabs.Lookup(keep &^ (slab.Size - 1)).IsSlabIn() {
				t.Fatal("setup: freeing the last old-class block did not demote the slab")
			}
			b.Flush()
			if h.BlockAllocated(fresh) {
				t.Fatalf("block %#x of arena 0 is still held after the drain: the retry cached it in a thread of arena 1", fresh)
			}
		})
	}
}

// foreignCached counts the blocks th's tcaches and its arena's depots hold
// of slabs another arena owns.
func foreignCached(th *Thread) int {
	n := 0
	count := func(b tcache.Block) {
		if b.Slab.(*slab.Slab).Owner != th.arena.index {
			n++
		}
	}
	for _, tc := range th.caches {
		if tc == nil {
			continue
		}
		for _, b := range tc.Drain() {
			count(b)
			tc.Push(th.arena.tcacheStripe(b.Slab.(*slab.Slab).Geometry(), b.Idx), b)
		}
	}
	for _, d := range th.arena.depots {
		for _, m := range d {
			for _, b := range m.Blocks[:m.N] {
				count(b)
			}
		}
	}
	return n
}

// TestForeignFreeNeverCached: in every variant a Free of another arena's
// block goes to the remote-free buffer of its owner, never into the
// freeing thread's tcache or its arena's depot. Then a Larson-style loop
// of two threads on two arenas, which swap their live blocks every 250
// steps so that half the frees are cross-arena, runs 10 000 steps with no
// foreign block ever cached, and ends with every small block free.
func TestForeignFreeNeverCached(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		t.Run(v.String(), func(t *testing.T) {
			_, h := newHeap(t, v, func(o *Options) { o.Arenas = 2 })
			a := h.NewThread().(*Thread) // arena 0
			b := h.NewThread().(*Thread) // arena 1
			var blocks []pmem.PAddr
			for i := 0; i < 200; i++ {
				p, err := a.Malloc(64)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, p)
			}
			for _, p := range blocks {
				if err := b.Free(p); err != nil {
					t.Fatal(err)
				}
			}
			if n := foreignCached(b); n != 0 {
				t.Fatalf("%d of arena 0's blocks cached in arena 1 after cross-arena frees", n)
			}
			if b.remote[0].Len() == 0 {
				t.Fatal("no cross-arena free was buffered")
			}

			const slots, steps, swapEvery = 64, 10000, 250
			rng := rand.New(rand.NewSource(1))
			threads := [2]*Thread{a, b}
			var live [2][slots]pmem.PAddr
			for step := 0; step < steps; step++ {
				w := step % 2
				th, i := threads[w], rng.Intn(slots)
				if p := live[w][i]; p != pmem.Null {
					if err := th.Free(p); err != nil {
						t.Fatalf("step %d: free: %v", step, err)
					}
				}
				p, err := th.Malloc(uint64(16 + rng.Intn(497)))
				if err != nil {
					t.Fatalf("step %d: malloc: %v", step, err)
				}
				live[w][i] = p
				if step%swapEvery == swapEvery-1 {
					live[0], live[1] = live[1], live[0]
					for _, th := range threads {
						if n := foreignCached(th); n != 0 {
							t.Fatalf("step %d: arena %d caches %d blocks of the other arena", step, th.arena.index, n)
						}
					}
				}
			}
			for w, th := range threads {
				for _, p := range live[w] {
					if p != pmem.Null {
						if err := th.Free(p); err != nil {
							t.Fatal(err)
						}
					}
				}
				th.Close()
			}
			h.Objects(func(o Object) bool {
				if o.Slab {
					t.Errorf("small block %#x still allocated after both threads freed all they held and closed", o.Addr)
				}
				return true
			})
		})
	}
}
