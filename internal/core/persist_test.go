package core

import (
	"testing"

	"nvalloc/internal/pmem"
)

// TestPersistSchedulePerOp pins the number of line flushes and store
// fences each steady-state operation issues, per consistency variant.
// The golden tables catch a moved flush only as a changed latency; this
// catches it — and a doubled or dropped fence — as a count, next to the
// code that issues it.
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
			want: map[Variant]cost{LOG: {2, 1}, GC: {0, 0}, IC: {1, 1}},
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
			want: map[Variant]cost{LOG: {2, 1}, GC: {0, 0}, IC: {1, 1}},
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
			want: map[Variant]cost{LOG: {2, 1}, GC: {0, 0}, IC: {1, 1}},
		},
		{
			// Sixteen frees of another arena's blocks: LOG buffers fifteen
			// and drains all sixteen on the last; GC and IC cache them.
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
			want: map[Variant]cost{LOG: {32, 1}, GC: {0, 0}, IC: {16, 16}},
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
