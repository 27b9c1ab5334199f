package core

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
)

// TestPersistSchedulePerOp pins the number of line flushes and store
// fences each steady-state operation issues, per consistency variant.
// The golden tables catch a moved flush only as a changed latency; this
// catches it — and a doubled or dropped fence — as a count, next to the
// code that issues it. LOG's small-path rows are the WAL entry alone: the
// bitmap line is written back at the ring's checkpoint, whose cost
// TestWriteBackSchedule pins.
func TestPersistSchedulePerOp(t *testing.T) {
	type cost struct{ flushes, fences uint64 }
	measure := func(th *Thread, fn func()) cost {
		before := th.Ctx().Local()
		fn()
		after := th.Ctx().Local()
		return cost{after.Flushes - before.Flushes, after.Fences - before.Fences}
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every op runs on a fresh heap whose first-use costs (slab format,
	// lease, first bookkeeping chunk) were paid by a warm-up of the same
	// shape, so the measured op is the steady state.
	ops := []struct {
		name string
		run  func(t *testing.T, h *Heap) cost
		want map[Variant]cost
	}{
		{
			name: "small malloc",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				p, err := th.Malloc(64)
				must(t, err)
				must(t, th.Free(p))
				return measure(th, func() { _, err = th.Malloc(64) })
			},
			want: map[Variant]cost{LOG: {1, 1}, GC: {0, 0}, IC: {1, 1}},
		},
		{
			name: "small free to tcache",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				p, err := th.Malloc(64)
				must(t, err)
				c := measure(th, func() { err = th.Free(p) })
				must(t, err)
				if !h.BlockAllocated(p) {
					t.Fatal("block went to its slab, not the tcache")
				}
				return c
			},
			want: map[Variant]cost{LOG: {1, 1}, GC: {0, 0}, IC: {1, 1}},
		},
		{
			// 24 frees fill the tcache and four evictions of 12 fill the
			// depot; from the 73rd on every free returns straight to its slab.
			name: "bypass free",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				var ps []pmem.PAddr
				for i := 0; i < 100; i++ {
					p, err := th.Malloc(64)
					must(t, err)
					ps = append(ps, p)
				}
				for _, p := range ps[:99] {
					must(t, th.Free(p))
				}
				var err error
				c := measure(th, func() { err = th.Free(ps[99]) })
				must(t, err)
				if h.BlockAllocated(ps[99]) {
					t.Fatal("block was cached, not returned to its slab")
				}
				return c
			},
			want: map[Variant]cost{LOG: {1, 1}, GC: {0, 0}, IC: {1, 1}},
		},
		{
			// Sixteen frees of another arena's blocks: every variant buffers
			// fifteen and drains all sixteen on the last, one fence closing
			// the group (GC writes nothing persistent).
			name: "16 cross-arena frees",
			run: func(t *testing.T, h *Heap) cost {
				owner := h.NewThread().(*Thread)
				defer owner.Close()
				th := h.NewThread().(*Thread)
				defer th.Close()
				if owner.arena == th.arena {
					t.Fatal("threads share an arena")
				}
				var ps []pmem.PAddr
				for i := 0; i < remoteBatch; i++ {
					p, err := owner.Malloc(64)
					must(t, err)
					ps = append(ps, p)
				}
				return measure(th, func() {
					for _, p := range ps {
						must(t, th.Free(p))
					}
				})
			},
			want: map[Variant]cost{LOG: {16, 1}, GC: {0, 0}, IC: {16, 1}},
		},
		{
			name: "large alloc",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				p, err := th.Malloc(64 << 10)
				must(t, err)
				must(t, th.Free(p))
				return measure(th, func() { _, err = th.Malloc(64 << 10) })
			},
			want: map[Variant]cost{LOG: {1, 1}, GC: {1, 1}, IC: {1, 1}},
		},
		{
			name: "large free",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				p, err := th.Malloc(64 << 10)
				must(t, err)
				must(t, th.Free(p))
				p, err = th.Malloc(64 << 10)
				must(t, err)
				return measure(th, func() { err = th.Free(p) })
			},
			want: map[Variant]cost{LOG: {1, 1}, GC: {1, 1}, IC: {1, 1}},
		},
		{
			// LOG: the publish entry and its fence, the slot and its fence;
			// the block's bit is written under the entry. IC flushes the bit
			// instead of an entry; GC persists the slot alone.
			name: "small MallocTo",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				p, err := th.Malloc(64)
				must(t, err)
				must(t, th.Free(p))
				return measure(th, func() { _, err = alloc.MallocTo(th, h.RootSlot(0), 64) })
			},
			want: map[Variant]cost{LOG: {2, 2}, GC: {1, 1}, IC: {2, 2}},
		},
		{
			name: "small FreeFrom",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				_, err := alloc.MallocTo(th, h.RootSlot(0), 64)
				must(t, err)
				c := measure(th, func() { err = alloc.FreeFrom(th, h.RootSlot(0)) })
				must(t, err)
				return c
			},
			want: map[Variant]cost{LOG: {2, 2}, GC: {1, 1}, IC: {2, 2}},
		},
		{
			// One entry names the slot, the new block and the one it
			// supersedes; GC and IC compose a malloc_to and a free.
			name: "small replace through Publish",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				old, err := alloc.MallocTo(th, h.RootSlot(0), 64)
				must(t, err)
				p, err := th.Reserve(64)
				must(t, err)
				c := measure(th, func() { err = th.Publish(h.RootSlot(0), p, old) })
				must(t, err)
				if !h.BlockAllocated(p) || h.dev.ReadU64(h.RootSlot(0)) != uint64(p) {
					t.Fatal("replace did not take")
				}
				return c
			},
			want: map[Variant]cost{LOG: {2, 2}, GC: {1, 1}, IC: {3, 3}},
		},
		{
			name: "Reserve then Unreserve",
			run: func(t *testing.T, h *Heap) cost {
				th := h.NewThread().(*Thread)
				defer th.Close()
				p, err := th.Malloc(64)
				must(t, err)
				must(t, th.Free(p))
				return measure(th, func() {
					p, err = th.Reserve(64)
					must(t, err)
					must(t, th.Unreserve(p))
				})
			},
			want: map[Variant]cost{LOG: {0, 0}, GC: {0, 0}, IC: {0, 0}},
		},
	}
	for _, op := range ops {
		for _, v := range []Variant{LOG, GC, IC} {
			t.Run(op.name+"/"+v.String(), func(t *testing.T) {
				_, h := newHeap(t, v, nil)
				if got := op.run(t, h); got != op.want[v] {
					t.Fatalf("%d flushes, %d fences; want %d flushes, %d fences",
						got.flushes, got.fences, op.want[v].flushes, op.want[v].fences)
				}
			})
		}
	}
}

// TestWriteBackSchedule pins what LOG's deferred bitmap flushes cost when
// they do happen. A checkpoint period is the n/2+1 appends between two
// moves of the ring's checkpoint word. The trace frees and reallocates
// with nothing else live; the LIFO tcache hands the freed block straight
// back, so every free is undone by the next malloc of the same block, and
// a line whose bytes are back to what the media holds is not written back.
// The period's 513 appends are odd, so the block ends it in the other
// state than it began: 513 entry flushes, one write-back flush and the
// checkpoint word, with a fence per commit plus one after the write-back
// and one after the word. (An eager bitmap flush per commit reads 1027
// flushes.)
func TestWriteBackSchedule(t *testing.T) {
	_, h := newHeap(t, LOG, nil)
	th := h.NewThread().(*Thread)
	defer th.Close()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// step issues the next op of the trace and reports whether the
	// checkpoint moved inside it (any op that flushes more than its entry).
	alloc := false
	step := func() bool {
		before := th.Ctx().Local().Flushes
		if alloc {
			p, err = th.Malloc(64)
		} else {
			err = th.Free(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		alloc = !alloc
		return th.Ctx().Local().Flushes-before > 1
	}
	for i := 0; !step(); i++ {
		if i > 2*h.opts.WALEntries {
			t.Fatal("checkpoint never moved")
		}
	}
	before := th.Ctx().Local()
	ops := 1
	for ; !step(); ops++ {
	}
	after := th.Ctx().Local()
	period := h.opts.WALEntries/2 + 1
	if ops != period {
		t.Fatalf("checkpoint period of %d ops, want %d", ops, period)
	}
	const lines = 1
	if f, want := after.Flushes-before.Flushes, uint64(period+lines+1); f != want {
		t.Errorf("%d flushes per checkpoint period, want %d", f, want)
	}
	if f, want := after.Fences-before.Fences, uint64(period+2); f != want {
		t.Errorf("%d fences per checkpoint period, want %d", f, want)
	}
	if m, want := after.CatFlush[pmem.CatMeta]-before.CatFlush[pmem.CatMeta], uint64(lines); m != want {
		t.Errorf("%d bitmap lines written back, want %d", m, want)
	}
}

// TestReplayWritesEachLineOnce: sequence-order replay flips a toggled
// block's bit once per surviving entry, but only in the cache image; the
// write-back ahead of the ring's checkpoint flushes each distinct bitmap
// line once, and the ring costs one more flush for its checkpoint word.
func TestReplayWritesEachLineOnce(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true, Journal: true})
	opts := DefaultOptions(LOG)
	opts.Arenas = 2
	h, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	var keep []pmem.PAddr
	for i := 0; i < 40; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, p)
	}
	for i := 0; i < 150; i++ { // 300 entries toggling one bit
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	th.Ctx().Merge()
	dev.Crash()
	start := dev.JournalLen()
	h2, _, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range keep {
		if !h2.BlockAllocated(p) {
			t.Fatalf("block %#x lost", p)
		}
	}
	var regions struct{ wal, heap pmem.Range }
	for _, r := range Regions(dev) {
		switch r.Name {
		case "wal":
			regions.wal = r.Range
		case "heap":
			regions.heap = r.Range
		}
	}
	bitmap := map[uint64]int{}
	walFlushes := 0
	for _, fd := range dev.JournalSnapshot()[start:] {
		addr := pmem.PAddr(fd.Line * pmem.LineSize)
		switch {
		case addr >= regions.wal.Start && addr < regions.wal.End:
			walFlushes++
		case addr >= regions.heap.Start && fd.Cat == pmem.CatMeta && (addr-regions.heap.Start)%slab.Size >= pmem.LineSize:
			bitmap[fd.Line]++
		}
	}
	if len(bitmap) == 0 {
		t.Fatal("replay wrote no bitmap line back: the crash lost nothing?")
	}
	for line, n := range bitmap {
		if n != 1 {
			t.Errorf("bitmap line %#x flushed %d times during recovery, want once", line*pmem.LineSize, n)
		}
	}
	if walFlushes != 1 {
		t.Errorf("%d WAL-region flushes during recovery, want 1 (the replayed ring's checkpoint word)", walFlushes)
	}
}
