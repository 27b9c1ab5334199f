package phash

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// TestIndexPersistSchedule pins what each index operation costs on the
// simulated device, the way core's TestPersistSchedulePerOp pins the
// allocator's: flushes, fences, reflushes (a flush of a line that is
// among the last four this worker flushed) and allocator calls. The
// index it replaces read 6/3/1 and one malloc for a new key and 3/2 and
// one free for a delete.
func TestIndexPersistSchedule(t *testing.T) {
	type cost struct{ flushes, fences, reflushes, mallocs, frees int }

	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := &alloc.CountingThread{Thread: h.NewThread()}
	defer th.Close()
	// One bucket: every key chains off it, and it starts a cache line, so
	// its slots 0 and 1 share the commit word's line.
	m, err := Create(h, th, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.dir%pmem.LineSize != 0 {
		t.Fatalf("directory at %#x is not line-aligned", m.dir)
	}
	// Pay the 160-byte class's first-use costs (slab format, lease) now, so
	// the chained Put below sees a steady-state malloc (1 flush, 1 fence).
	warm, err := th.Malloc(BucketBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(warm); err != nil {
		t.Fatal(err)
	}
	scratch, err := th.Malloc(8 * pmem.LineSize)
	if err != nil {
		t.Fatal(err)
	}

	c := th.Ctx()
	measure := func(fn func() error) cost {
		t.Helper()
		// Four unrelated lines empty the reflush window: a reflush counted
		// below is one the measured operation causes by itself.
		c.Flush(pmem.CatOther, scratch, 4*pmem.LineSize)
		before, mallocs, frees := c.Local(), th.Mallocs, th.Frees
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		after := c.Local()
		return cost{
			int(after.Flushes - before.Flushes), int(after.Fences - before.Fences),
			int(after.Reflushes - before.Reflushes), th.Mallocs - mallocs, th.Frees - frees,
		}
	}
	expect := func(what string, got, want cost) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %+v, want %+v", what, got, want)
		}
	}
	put := func(k, v uint64) func() error {
		return func() error { return m.Put(th, k, v) }
	}

	// Slots 7..2 sit on other lines than the commit word.
	for k := uint64(0); k < 6; k++ {
		expect("Put new", measure(put(k, k)), cost{flushes: 2, fences: 2})
	}
	// Slots 1 and 0 of a line-aligned bucket are handed out last because
	// their commit re-flushes the entry's line.
	for k := uint64(6); k < 8; k++ {
		expect("Put new, slot on the commit word's line", measure(put(k, k)), cost{flushes: 2, fences: 2, reflushes: 1})
	}
	// Malloc (one WAL entry, one fence), the 160-byte bucket with the entry
	// in it (three lines, one fence), the link (one line, one fence).
	expect("Put new, chaining an overflow bucket", measure(put(8, 8)), cost{flushes: 5, fences: 3, mallocs: 1})
	expect("Put new, into the overflow bucket", measure(put(9, 9)), cost{flushes: 2, fences: 2})
	expect("Put update", measure(put(3, 33)), cost{flushes: 1, fences: 1})
	expect("Put update, in the overflow bucket", measure(put(8, 88)), cost{flushes: 1, fences: 1})
	del := func(k uint64) func() error {
		return func() error {
			ok, err := m.Delete(th, k)
			if !ok {
				t.Errorf("Delete(%d) found nothing", k)
			}
			return err
		}
	}
	expect("Delete", measure(del(3)), cost{flushes: 1, fences: 1})
	expect("Delete, in the overflow bucket", measure(del(9)), cost{flushes: 1, fences: 1})
	// The vacated slot is reused at the price of any other insert.
	expect("Put new, reusing a slot", measure(put(10, 10)), cost{flushes: 2, fences: 2})

	for k, want := range map[uint64]uint64{0: 0, 8: 88, 10: 10} {
		if v, ok := m.Get(th, k); !ok || v != want {
			t.Errorf("Get(%d) = %d, %v; want %d", k, v, ok, want)
		}
	}
}
