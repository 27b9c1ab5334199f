package core

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// FuzzHeapOps interprets the fuzz input as an allocation script and runs
// it against all three variants under the invariant checker: byte pairs
// (op, arg) where even ops allocate (size derived from arg) and odd ops
// free a pseudo-random live allocation. No input may panic the allocator,
// violate the no-overlap invariant, or corrupt block contents.
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 1, 0, 0, 255, 1, 1, 1, 2})
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{2, 100, 4, 250, 6, 3, 1, 9, 3, 7, 5, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, v := range []Variant{LOG, GC, IC} {
			dev := pmem.New(pmem.Config{Size: 64 << 20})
			opts := DefaultOptions(v)
			opts.Arenas = 2
			h, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			ck := alloc.NewChecker(h)
			th := ck.NewThread()
			type obj struct {
				p   pmem.PAddr
				tag uint64
			}
			var live []obj
			for i := 0; i+1 < len(script); i += 2 {
				op, arg := script[i], script[i+1]
				if op%2 == 0 || len(live) == 0 {
					size := uint64(arg)*97 + 1 // 1..24736: small and near-class-boundary
					if op%8 == 6 {
						size = uint64(arg)<<12 + 17<<10 // large path
					}
					p, err := th.Malloc(size)
					if err != nil {
						continue // heap exhaustion is fine
					}
					tag := uint64(p) ^ 0xA5A5
					dev.WriteU64(p, tag)
					live = append(live, obj{p, tag})
				} else {
					j := int(arg) % len(live)
					o := live[j]
					if dev.ReadU64(o.p) != o.tag {
						t.Fatalf("%v: corruption at %#x", v, o.p)
					}
					if err := th.Free(o.p); err != nil {
						t.Fatalf("%v: free(%#x): %v", v, o.p, err)
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, o := range live {
				if dev.ReadU64(o.p) != o.tag {
					t.Fatalf("%v: final corruption at %#x", v, o.p)
				}
			}
			if errs := ck.Errors(); len(errs) != 0 {
				t.Fatalf("%v: invariants violated: %v", v, errs)
			}
			th.Close()
		}
	})
}
