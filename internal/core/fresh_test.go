package core

import (
	"fmt"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// heldSet is what a test holds of a heap: the addresses it allocated and
// never freed.
type heldSet map[pmem.PAddr]bool

func (s heldSet) malloc(t *testing.T, th alloc.Thread, size uint64) {
	t.Helper()
	p, err := th.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	s[p] = true
}

// TestCreateOverOldHeapForgetsIt: Create on a device that holds a crashed
// NVAlloc-LOG heap — rings with live entries past their checkpoints, a
// bookkeeping log with large-object records, in one case after a slow GC
// moved the log to its other chain, in another with in-place bookkeeping,
// whose records sit in a table at the head of every chunk — formats a heap
// that holds only what it allocated itself. After a crash of the new heap,
// Open replays none of the old entries and brings back none of the old
// extents, and every block the new heap holds is allocated.
func TestCreateOverOldHeapForgetsIt(t *testing.T) {
	for _, tc := range []struct {
		name            string
		slowGC, inPlace bool
	}{
		{name: "slowGC=false"},
		{name: "slowGC=true", slowGC: true},
		{name: "inPlace", inPlace: true},
	} {
		slowGC := tc.slowGC
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 32 << 20, Strict: true})
			opts := DefaultOptions(LOG)
			opts.Arenas = 2
			opts.LogBookkeeping = !tc.inPlace
			if slowGC {
				opts.BlogGCThreshold = 2 << 10
			}
			old, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			th := old.NewThread()
			for i := 0; i < 300; i++ {
				if _, err := th.Malloc(64); err != nil {
					t.Fatal(err)
				}
			}
			// Large objects, half of them freed again; with slowGC the
			// churn goes on until the log has compacted an odd number of
			// times, so its live chain hangs off the other header pointer.
			for i := 0; i < 40 || slowGC && oddSlowGCs(old) == 0; i++ {
				if i == 1000 {
					t.Fatal("the old log never compacted")
				}
				p, err := th.Malloc(64 << 10)
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					if err := th.Free(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if live := old.arenas[0].wal.Seq() - 1; live < 300 {
				t.Fatalf("old ring holds %d entries, want 300 or more", live)
			}
			th.Ctx().Merge()
			dev.Crash()

			// The same layout, so the new log lies where the old one does.
			opts.BlogGCThreshold = 0
			h, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			held := heldSet{}
			th2 := h.NewThread()
			for i := 0; i < 5; i++ {
				held.malloc(t, th2, 64)
			}
			for i := 0; i < 2; i++ {
				held.malloc(t, th2, 64<<10)
			}
			th2.Ctx().Merge()
			appended := 0
			for _, a := range h.arenas {
				appended += int(a.wal.Seq() - 1)
			}
			dev.Crash()

			h2, _, err := Open(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := h2.Recovery().EntriesReplayed; got > appended {
				t.Errorf("replay found %d live entries, the new heap appended %d", got, appended)
			}
			objects := heldSet{}
			h2.Objects(func(o Object) bool {
				objects[o.Addr] = true
				return true
			})
			for p := range objects {
				if !held[p] {
					t.Errorf("object %#x is the old heap's", p)
				}
			}
			for p := range held {
				if !objects[p] {
					t.Errorf("held block %#x is not allocated", p)
				}
			}
		})
	}
}

// oddSlowGCs reports 1 if h's log has completed an odd number of slow GCs
// and has none underway, else 0.
func oddSlowGCs(h *Heap) int {
	_, slow := h.Blog().GCCounts()
	if h.Blog().GCActive() {
		return 0
	}
	return int(slow % 2)
}

// TestUsedSurvivesReopen: Used and Peak after Close + Open, and Used after
// a crash + Open, are what they were before, on every variant. Open counts
// the metadata in service from what the media hold — the superblock, the
// log up to its break, each ring whose checkpoint is above 0 — and a
// thread that was bound to an arena but never appended to its ring put
// nothing in service on either side.
func TestUsedSurvivesReopen(t *testing.T) {
	for _, v := range []Variant{LOG, GC, IC} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/kill=%v", v, kill), func(t *testing.T) {
				dev, h := newHeap(t, v, nil)
				th := h.NewThread()
				idle := h.NewThread() // bound to an arena of its own, never used
				// Everything stays reachable from root 0, so the GC
				// variant's recovery keeps it all.
				const n = 600
				arr, err := alloc.MallocTo(th, h.RootSlot(0), 8*n)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					size := uint64(64 + i%7*64)
					if i%100 == 99 {
						size = 256 << 10
					}
					p, err := th.Malloc(size)
					if err != nil {
						t.Fatal(err)
					}
					dev.WriteU64(arr+pmem.PAddr(8*i), uint64(p))
				}
				th.Ctx().Flush(pmem.CatOther, arr, 8*n)
				th.Ctx().Fence()
				th.Ctx().Merge()
				want := 0 // GC and IC append to no ring
				if v == LOG {
					want = 1 // the used thread's
				}
				if got := h.Metadata().RingsInService; got != want {
					t.Fatalf("%d rings in service, want %d", got, want)
				}
				if kill {
					used := h.Used()
					dev.Crash()
					h2, _, err := Open(dev, DefaultOptions(v))
					if err != nil {
						t.Fatal(err)
					}
					if h2.Used() != used {
						t.Errorf("Used %d after a crash and Open, %d before", h2.Used(), used)
					}
					return
				}
				th.Close()
				idle.Close()
				h.ResetPeak()
				used, peak := h.Used(), h.Peak()
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				h2, _, err := Open(dev, DefaultOptions(v))
				if err != nil {
					t.Fatal(err)
				}
				if h2.Used() != used || h2.Peak() != peak {
					t.Errorf("Used %d and Peak %d after Close and Open, %d and %d before", h2.Used(), h2.Peak(), used, peak)
				}
			})
		}
	}
}
