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
// among the last four this worker flushed) and allocator calls. A slot's
// key and value words are one cache line apart, so no commit re-flushes
// the line its key flush wrote, in any slot of any bucket; the fingerprint-
// word layout this one replaces paid a reflush on two slots of every other
// bucket and an insert into a deleted key's slot 2/2.
func TestIndexPersistSchedule(t *testing.T) {
	type cost struct{ flushes, fences, reflushes, mallocs, frees, reserves, publishes int }

	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := &alloc.CountingThread{Thread: h.NewThread()}
	defer th.Close()
	// One bucket: every key chains off it.
	m, err := Create(h, th, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pay the 160-byte class's first-use costs (slab format, lease) now, so
	// the chained Put below sees a steady-state reservation.
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
		before, calls := c.Local(), *th
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		after := c.Local()
		return cost{
			int(after.Flushes - before.Flushes), int(after.Fences - before.Fences),
			int(after.Reflushes - before.Reflushes), th.Mallocs - calls.Mallocs, th.Frees - calls.Frees,
			th.Reserves - calls.Reserves, th.Publishes - calls.Publishes,
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

	// The key, a fence, the value: in every slot of the bucket.
	for k := uint64(1); k <= Slots; k++ {
		expect("Put new", measure(put(k, k)), cost{flushes: 2, fences: 2})
	}
	// The bucket is reserved, built with the entry in it (three lines) and
	// published into the chain's overflow word: one WAL entry and a fence,
	// the link and a fence.
	expect("Put new, chaining an overflow bucket", measure(put(9, 9)), cost{flushes: 5, fences: 2, reserves: 1, publishes: 1})
	expect("Put new, into the overflow bucket", measure(put(10, 10)), cost{flushes: 2, fences: 2})
	expect("Put update", measure(put(3, 33)), cost{flushes: 1, fences: 1})
	expect("Put update, in the overflow bucket", measure(put(9, 99)), cost{flushes: 1, fences: 1})
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
	expect("Delete, in the overflow bucket", measure(del(10)), cost{flushes: 1, fences: 1})
	// A deleted key's slot still holds the key: putting it back is the
	// value persist alone. Another key pays for its key as any insert does.
	expect("Put of a deleted key, into its old slot", measure(put(3, 34)), cost{flushes: 1, fences: 1})
	expect("Put new, reusing a slot", measure(put(11, 11)), cost{flushes: 2, fences: 2})

	for k, want := range map[uint64]uint64{1: 1, 3: 34, 9: 99, 11: 11} {
		if v, ok := m.Get(th, k); !ok || v != want {
			t.Errorf("Get(%d) = %d, %v; want %d", k, v, ok, want)
		}
	}
	if _, ok := m.Get(th, 10); ok {
		t.Error("deleted key 10 is back")
	}
}
