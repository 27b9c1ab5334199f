package phash

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// TestCrashSlotReuseEveryBoundary cuts power at every persistence
// boundary, and under every tearing of the line in flight, of the
// sequence the value-word commit has to get right: insert k1, delete it,
// insert k2 into the slot k1 vacated, update k2 in place, delete k2 and
// put it back into the slot that still holds its key. Recovery must see
// the state before or after the operation in flight and nothing else —
// never k1's stale key revived, never k2's key over k1's value — with the
// settled keys around them untouched.
//
// The three placements put the contested slot in the middle of the
// directory bucket, at its end, and in an overflow bucket that the first
// insert chains (so the chaining publish is swept as well).
func TestCrashSlotReuseEveryBoundary(t *testing.T) {
	const (
		devBytes = 24 << 20
		k1, v1   = uint64(1001), uint64(0x1111)
		k2, v2   = uint64(2002), uint64(0x2222)
		v2b      = uint64(0x2B2B)
		v2c      = uint64(0x2C2C)
	)
	type state map[uint64]uint64
	for _, tc := range []struct {
		name     string
		fillers  int
		slot     int
		overflow bool
	}{
		{"directory bucket", 3, 3, false},
		{"last slot", 7, 7, false},
		{"overflow bucket", 8, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: devBytes, Strict: true, Journal: true})
			h, err := core.Create(dev, core.DefaultOptions(core.LOG))
			if err != nil {
				t.Fatal(err)
			}
			th := h.NewThread()
			defer th.Close()
			// One bucket, so every key contends for the same chain.
			m, err := Create(h, th, 0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			settled := state{}
			for k := uint64(1); k <= uint64(tc.fillers); k++ {
				if err := m.Put(th, k, k*7); err != nil {
					t.Fatal(err)
				}
				settled[k] = k * 7
			}

			// marks[i] is the journal length once ops[:i] were acknowledged;
			// states[i] is what k1 and k2 must read as from then on.
			ops := []func() error{
				func() error { return m.Put(th, k1, v1) },
				func() error { _, err := m.Delete(th, k1); return err },
				func() error { return m.Put(th, k2, v2) },
				func() error { return m.Put(th, k2, v2b) },
				func() error { _, err := m.Delete(th, k2); return err },
				func() error { return m.Put(th, k2, v2c) },
			}
			states := []state{{}, {k1: v1}, {}, {k2: v2}, {k2: v2b}, {}, {k2: v2c}}
			inserted := map[int]uint64{0: k1, 2: k2, 5: k2} // op index -> key it inserts
			marks := []int{dev.JournalLen()}
			for i, op := range ops {
				if err := op(); err != nil {
					t.Fatal(err)
				}
				marks = append(marks, dev.JournalLen())
				if key, ok := inserted[i]; ok {
					// k1, then k2, must sit in the contested slot.
					cur := m.Find(th, key)
					p := cur.p
					cur.Release()
					if !p.live || p.slot != tc.slot || (p.b != m.bucketAddr(0)) != tc.overflow {
						t.Fatalf("key %d in bucket %#x slot %d (live %v), want slot %d, overflow %v",
							key, p.b, p.slot, p.live, tc.slot, tc.overflow)
					}
				}
			}
			journal := dev.JournalSnapshot()

			check := func(scratch *pmem.Device, allowed ...state) error {
				h2, _, err := core.Open(scratch, core.DefaultOptions(core.LOG))
				if err != nil {
					return fmt.Errorf("core.Open: %v", err)
				}
				m2, err := Open(h2, 0)
				if err != nil {
					return err
				}
				th2 := h2.NewThread()
				defer th2.Close()
				for k, want := range settled {
					if v, ok := m2.Get(th2, k); !ok || v != want {
						return fmt.Errorf("settled key %d = %d, %v; want %d", k, v, ok, want)
					}
				}
				got := state{}
				for _, k := range []uint64{k1, k2} {
					if v, ok := m2.Get(th2, k); ok {
						got[k] = v
					}
				}
				if n := m2.Len(); n != len(settled)+len(got) {
					return fmt.Errorf("Len %d with %d settled keys and %v", n, len(settled), got)
				}
				for _, s := range allowed {
					if reflect.DeepEqual(s, got) {
						return nil
					}
				}
				return fmt.Errorf("recovered %v, admissible %v", got, allowed)
			}

			cur := pmem.NewImageCursor(devBytes, journal)
			scratch := pmem.New(pmem.Config{Size: devBytes})
			img := make([]byte, devBytes)
			images := 0
			i := 0 // ops[:i] acknowledged at boundary k
			for k := marks[0]; k <= marks[len(marks)-1]; k++ {
				cur.Advance(k)
				for i+1 < len(marks) && marks[i+1] <= k {
					i++
				}
				// A cut exactly at an acknowledgement leaves that state; a
				// cut inside op i leaves its pre- or post-state.
				allowed := []state{states[i]}
				if k > marks[i] {
					allowed = append(allowed, states[i+1])
				}
				cur.MaterializeInto(scratch)
				if err := check(scratch, allowed...); err != nil {
					t.Fatalf("boundary %d (op %d): %v", k, i, err)
				}
				images++
				if k == len(journal) {
					break
				}
				// Every tearing of the flush in flight: each subset of the
				// 8-byte words it would change, save none and all of them
				// (boundaries k and k+1).
				if k == marks[i] && i < len(ops) {
					allowed = append(allowed, states[i+1])
				}
				fd := &journal[k]
				off := fd.Line * pmem.LineSize
				var changed []int
				for w := 0; w < pmem.LineSize/8; w++ {
					if binary.LittleEndian.Uint64(cur.Image()[int(off)+w*8:]) != binary.LittleEndian.Uint64(fd.Data[w*8:]) {
						changed = append(changed, w)
					}
				}
				for mask := 1; mask < 1<<len(changed)-1; mask++ {
					copy(img, cur.Image())
					for j, w := range changed {
						if mask&(1<<j) != 0 {
							copy(img[int(off)+w*8:int(off)+w*8+8], fd.Data[w*8:w*8+8])
						}
					}
					scratch.Restore(img)
					if err := check(scratch, allowed...); err != nil {
						t.Fatalf("boundary %d (op %d), line %#x torn to words %v&%#b (%d of %d changed): %v",
							k, i, off, changed, mask, bits.OnesCount(uint(mask)), len(changed), err)
					}
					images++
				}
			}
			t.Logf("%d boundaries, %d crash images", marks[len(marks)-1]-marks[0]+1, images)
		})
	}
}
