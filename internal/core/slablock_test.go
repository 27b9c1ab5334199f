package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
	"nvalloc/internal/slab"
)

// TestLOGSlabStateUnderArenaLock runs NVAlloc-LOG's small path from four
// threads on two arenas — mallocs, frees handed to a thread of the other
// arena, forced remote-free drains, publishes that replace and delete a
// root slot, and reservations given back — while a reader walks every slab
// through BlockAllocated, Objects, SlabUtilization and LayoutCensus. In
// LOG the owner arena's resource is the only lock on a slab, so under the
// race detector a reader that took slab.Mu instead would race with every
// writer here.
func TestLOGSlabStateUnderArenaLock(t *testing.T) {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	opts := DefaultOptions(LOG)
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

// TestLOGSmallPathTakesNoSlabMutex holds every slab's Mu and drives each
// small-path operation against it: a tcache-hit malloc, a refill, a free
// that evicts a magazine, a free that bypasses a full depot, a remote free
// and its drain, a publish that allocates, replaces, deletes, or frees a
// slab_in's old-class block, and an Unreserve. In NVAlloc-LOG each one
// completes, because the owner arena's resource is the slab lock there. In
// NVAlloc-GC and NVAlloc-IC, whose free path writes a slab without the
// arena resource, slab.Mu is the slab lock, and each one waits for it.
func TestLOGSmallPathTakesNoSlabMutex(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		t.Run(v.String(), func(t *testing.T) {
			_, h := newHeap(t, v, func(o *Options) { o.Arenas = 2 })
			a := h.NewThread().(*Thread) // arena 0
			b := h.NewThread().(*Thread) // arena 1
			defer a.Close()
			defer b.Close()
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must := func(p pmem.PAddr, err error) pmem.PAddr {
				t.Helper()
				check(err)
				return p
			}

			// step runs path with every slab's Mu held by the test.
			step := func(name string, path func() error) {
				t.Helper()
				var held []*slab.Slab
				h.slabs.Range(func(_ pmem.PAddr, s *slab.Slab) bool {
					s.Mu.Lock()
					held = append(held, s)
					return true
				})
				release := func() {
					for _, s := range held {
						s.Mu.Unlock()
					}
				}
				done := make(chan error, 1)
				go func() { done <- path() }()
				wait := 10 * time.Second
				if v != LOG {
					wait = 50 * time.Millisecond
				}
				select {
				case err := <-done:
					release()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if v != LOG {
						t.Fatalf("%s completed while the test held every slab mutex; %v's small path takes them", name, v)
					}
				case <-time.After(wait):
					release()
					err := <-done
					if v == LOG {
						t.Fatalf("%s waited %v for a slab mutex", name, wait)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}

			slot0, slot1 := h.RootSlot(0), h.RootSlot(1)
			keep, _ := slabInAround(t, h, a, slot0)

			class := sizeclass.Class(256)
			tc := a.cache(class)
			depot := func() int { return len(h.arenas[0].depots[class]) }
			var allocs []pmem.PAddr
			malloc := func() error {
				p, err := a.Malloc(256)
				allocs = append(allocs, p)
				return err
			}
			pop := func() pmem.PAddr {
				p := allocs[len(allocs)-1]
				allocs = allocs[:len(allocs)-1]
				return p
			}

			check(malloc()) // formats a slab, caches the rest of the refill
			step("tcache-hit malloc", malloc)
			for !tc.Empty() {
				check(malloc())
			}
			step("refill", malloc)
			for len(allocs) < 150 {
				check(malloc())
			}
			for !tc.Full() {
				check(a.Free(pop()))
			}
			step("free evicting a magazine", func() error { return a.Free(pop()) })
			if depot() == 0 {
				t.Fatal("setup: the eviction parked no magazine")
			}
			for depot() < depotMags || !tc.Full() {
				check(a.Free(pop()))
			}
			step("free bypassing the full depot", func() error { return a.Free(pop()) })
			step("remote free and drain", func() error {
				err := b.Free(pop())
				b.Flush()
				return err
			})

			r1 := must(a.Reserve(256))
			step("publish (allocate)", func() error { return a.Publish(slot1, r1, pmem.Null) })
			r2 := must(a.Reserve(256))
			step("publish (replace)", func() error { return a.Publish(slot1, r2, r1) })
			step("publish (delete)", func() error { return a.Publish(slot1, pmem.Null, r2) })
			step("publish (delete a slab_in's old-class block)", func() error { return a.Publish(slot0, pmem.Null, keep) })
			r3 := must(a.Reserve(256))
			step("unreserve", func() error { return a.Unreserve(r3) })
		})
	}
}

// slabInAround leaves a slab_in owned by th's arena whose one old-class
// block, keep, is published under slot: it fills a slab of 1024-byte
// blocks, empties it around keep through short-lived threads (whose Close
// returns what they cached), and morphs it with a 1536-byte malloc, whose
// block it returns as fresh.
func slabInAround(t *testing.T, h *Heap, th *Thread, slot pmem.PAddr) (keep, fresh pmem.PAddr) {
	t.Helper()
	keep, err := th.MallocTo(slot, 1024)
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
// to its owner's slab: in NVAlloc-LOG a thread's cache holds blocks of its
// own arena only, because a refill commits what it pops under its own
// arena's resource, which is the slab lock of that arena's slabs alone.
func TestDrainRetryFreesForeignBlockToItsSlab(t *testing.T) {
	_, h := newHeap(t, LOG, func(o *Options) { o.Arenas = 2 })
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
	if err := b.FreeFrom(h.RootSlot(0)); err != nil {
		t.Fatal(err)
	}
	if h.slabs.Lookup(keep &^ (slab.Size - 1)).IsSlabIn() {
		t.Fatal("setup: freeing the last old-class block did not demote the slab")
	}
	b.Flush()
	if h.BlockAllocated(fresh) {
		t.Fatalf("block %#x of arena 0 is still held after the drain: the retry cached it in a thread of arena 1", fresh)
	}
}
