package phash

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

func newMap(t *testing.T, buckets int) (*pmem.Device, alloc.Heap, alloc.Thread, *Map) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 256 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	m, err := Create(h, th, 0, buckets, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dev, h, th, m
}

func TestPutGetDeleteBasic(t *testing.T) {
	_, _, th, m := newMap(t, 64)
	defer th.Close()
	if err := m.Put(th, 1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(th, 1); !ok || v != 100 {
		t.Fatalf("get: %d %v", v, ok)
	}
	if err := m.Put(th, 1, 200); err != nil { // update in place
		t.Fatal(err)
	}
	if v, _ := m.Get(th, 1); v != 200 {
		t.Fatalf("update lost: %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("len %d", m.Len())
	}
	ok, err := m.Delete(th, 1)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, ok := m.Get(th, 1); ok {
		t.Fatal("deleted key found")
	}
	if ok, _ := m.Delete(th, 1); ok {
		t.Fatal("double delete reported true")
	}
	if _, ok := m.Get(th, 999); ok {
		t.Fatal("phantom key")
	}
}

// TestZeroValueRoundTrips: a zero value word is the persistent encoding of
// an empty slot, so the value 0 is stored as the word ^0 — Put, Get, Len
// and Delete must not tell — and ^0 is the one value Put refuses.
func TestZeroValueRoundTrips(t *testing.T) {
	_, _, th, m := newMap(t, 4)
	defer th.Close()
	if err := m.Put(th, 9, ^uint64(0)); !errors.Is(err, ErrReservedValue) {
		t.Fatalf("Put(9, ^0): %v, want ErrReservedValue", err)
	}
	if _, ok := m.Get(th, 9); ok || m.Len() != 0 {
		t.Fatal("refused Put left an entry behind")
	}
	for _, v := range []uint64{0, 7, 0} {
		if err := m.Put(th, 9, v); err != nil {
			t.Fatal(err)
		}
		if got, ok := m.Get(th, 9); !ok || got != v || m.Len() != 1 {
			t.Fatalf("after Put(9, %d): Get = %d, %v; Len %d", v, got, ok, m.Len())
		}
	}
	if ok, _ := m.Delete(th, 9); !ok || m.Len() != 0 {
		t.Fatal("a key holding 0 did not delete")
	}
}

func TestOverflowChains(t *testing.T) {
	// A tiny directory forces long overflow chains.
	_, _, th, m := newMap(t, 2)
	defer th.Close()
	const n = 500
	for k := uint64(0); k < n; k++ {
		if err := m.Put(th, k, k*3+1); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != n {
		t.Fatalf("len %d, want %d", m.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := m.Get(th, k); !ok || v != k*3+1 {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
	}
	// Delete everything; slots become reusable.
	for k := uint64(0); k < n; k++ {
		if ok, err := m.Delete(th, k); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", k, ok, err)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("len after drain: %d", m.Len())
	}
	for k := uint64(1000); k < 1000+n; k++ {
		if err := m.Put(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != n {
		t.Fatal("slot reuse broken")
	}
}

// TestCountSplitsAtBucketRanges: Count hands each worker a range of
// directory buckets, and every chain belongs to its directory bucket's
// range. On seven buckets, every one chained past its directory bucket and
// with holes left by deletes, every worker count — one, counts that split
// the directory unevenly, and more workers than buckets — counts what Len
// counts.
func TestCountSplitsAtBucketRanges(t *testing.T) {
	_, _, th, m := newMap(t, 7)
	defer th.Close()
	live := 0
	for k := uint64(0); k < 400; k++ {
		if err := m.Put(th, k, k); err != nil {
			t.Fatal(err)
		}
		live++
	}
	for k := uint64(0); k < 400; k += 3 {
		if ok, err := m.Delete(th, k); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", k, ok, err)
		}
		live--
	}
	for i := uint64(0); i < m.nBuckets; i++ {
		chain := 0
		m.walk(i, i+1, func(pmem.PAddr, []byte) { chain++ })
		if chain < 2 {
			t.Fatalf("directory bucket %d has no overflow bucket", i)
		}
	}
	if m.Len() != live {
		t.Fatalf("Len %d, want %d", m.Len(), live)
	}
	for _, w := range []int{0, 1, 2, 3, 4, 6, 7, 8, 64} {
		if got := m.Count(w); got != live {
			t.Errorf("Count(%d) = %d, want %d", w, got, live)
		}
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	_, _, th, m := newMap(t, 256)
	defer th.Close()
	rng := rand.New(rand.NewSource(5))
	model := map[uint64]uint64{}
	for op := 0; op < 20000; op++ {
		k := uint64(rng.Intn(3000))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			if err := m.Put(th, k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 1:
			ok, err := m.Delete(th, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[k]; ok != want {
				t.Fatalf("delete(%d) = %v, model says %v", k, ok, want)
			}
			delete(model, k)
		default:
			v, ok := m.Get(th, k)
			wantV, want := model[k]
			if ok != want || (ok && v != wantV) {
				t.Fatalf("get(%d) = (%d,%v), model (%d,%v)", k, v, ok, wantV, want)
			}
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("len %d, model %d", m.Len(), len(model))
	}
}

func TestCrashRecoveryKeepsCommittedEntries(t *testing.T) {
	dev, h, th, m := newMap(t, 128)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := m.Put(th, k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k += 4 {
		if _, err := m.Delete(th, k); err != nil {
			t.Fatal(err)
		}
	}
	th.Ctx().Merge()
	dev.Crash()

	h2, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th2 := h2.NewThread()
	defer th2.Close()
	m2, err := Open(h2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := m2.Get(th2, k)
		if k%4 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
			continue
		}
		if !ok || v != k+7 {
			t.Fatalf("key %d lost: %d %v", k, v, ok)
		}
	}
	// Still writable after recovery.
	if err := m2.Put(th2, 1<<40, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Get(th2, 1<<40); !ok {
		t.Fatal("post-recovery put lost")
	}
	_ = h
}

func TestCrashMidInsertNeverTearsIndex(t *testing.T) {
	// Cut power at a sweep of flush boundaries during inserts; the index
	// must recover with every slot either fully present or fully absent.
	for _, cut := range []int64{1, 5, 13, 37, 89, 211, 499} {
		dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
		h, err := core.Create(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		m, err := Create(h, th, 0, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		dev.CrashAfterFlushes(cut)
		for k := uint64(0); k < 300 && !dev.Crashed(); k++ {
			_ = m.Put(th, k, k^0xFFFF)
		}
		th.Ctx().Merge()
		dev.Crash()
		h2, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
		if err != nil {
			t.Fatalf("cut=%d: heap recovery: %v", cut, err)
		}
		th2 := h2.NewThread()
		m2, err := Open(h2, 0)
		if err != nil {
			// The index header itself may not have committed for tiny
			// cuts; that is a consistent outcome.
			if cut < 64 {
				th2.Close()
				continue
			}
			t.Fatalf("cut=%d: index open: %v", cut, err)
		}
		// Every present entry must be fully intact (its own value).
		for k := uint64(0); k < 300; k++ {
			if v, ok := m2.Get(th2, k); ok && v != k^0xFFFF {
				t.Fatalf("cut=%d: torn entry for key %d: %d", cut, k, v)
			}
		}
		th2.Close()
	}
}

func TestConcurrentPutGet(t *testing.T) {
	_, h, th0, m := newMap(t, 512)
	defer th0.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := h.NewThread()
			defer th.Close()
			base := uint64(w) << 32
			for i := uint64(0); i < 2000; i++ {
				if err := m.Put(th, base|i, i+1); err != nil {
					errs <- err
					return
				}
				if v, ok := m.Get(th, base|i); !ok || v != i+1 {
					errs <- errTorn
					return
				}
				if i%3 == 0 {
					if _, err := m.Delete(th, base|i); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errTorn = &tornError{}

type tornError struct{}

func (*tornError) Error() string { return "phash: wrong value" }

func TestOpenWithoutIndex(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(h, 7); err == nil {
		t.Fatal("open of empty slot must error")
	}
}

// TestOpenRejectsOldLayout builds, by hand, the headers the two earlier
// layouts wrote: "PHASH64!" (bucket count, directory, blob size; a presence
// bitmap at bucket offset 0) and "PHASHv2!" (a fingerprint word there).
// This layout keeps keys at that offset, so Open must name the format and
// refuse, not misread it.
func TestOpenRejectsOldLayout(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	dir, err := th.Malloc(4 * 160)
	if err != nil {
		t.Fatal(err)
	}
	dev.Zero(dir, 4*160)
	dev.WriteU64(dir, 0b1) // bucket 0: presence bit of slot 0
	header, err := alloc.MallocTo(th, h.RootSlot(3), 4096)
	if err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(header+0, 0x5048415348363421)
	dev.WriteU64(header+8, 4)
	dev.WriteU64(header+16, uint64(dir))
	dev.WriteU64(header+24, 16)

	var fe *FormatError
	for magic, name := range map[uint64]string{0x5048415348363421: `"PHASH64!"`, 0x5048415348763221: `"PHASHv2!"`} {
		dev.WriteU64(header+0, magic)
		_, err = Open(h, 3)
		if !errors.As(err, &fe) {
			t.Fatalf("Open of a %s index: %v, want a *FormatError", name, err)
		}
		if fe.RootSlot != 3 || fe.Magic != magic || !strings.Contains(err.Error(), name) {
			t.Fatalf("error does not name the format %s: %v", name, err)
		}
	}
	// Garbage that is neither layout stays "no index".
	dev.WriteU64(header+0, 0xDEADBEEF)
	if _, err := Open(h, 3); err == nil || errors.As(err, &fe) {
		t.Fatalf("Open of a non-index: %v", err)
	}
}

// TestCursorPublish: a cursor commits on the slot its one probe found.
// Binding, rebinding and unbinding a key each cost the search charge of one
// Get of the key in the state it was in, in the directory bucket and down
// an overflow chain; a block the key is not bound to is refused and the
// reservation stays the caller's; and what the index references is what
// the heap holds.
func TestCursorPublish(t *testing.T) {
	_, h, th, m := newMap(t, 1) // one bucket: keys past the eighth chain
	defer th.Close()
	c := th.Ctx()
	search := func(fn func()) int64 {
		before := c.Local().CatNS[pmem.CatSearch]
		fn()
		return c.Local().CatNS[pmem.CatSearch] - before
	}
	// publish binds key to a fresh block of size bytes (none when 0) in
	// place of old, which must be what the cursor reports.
	publish := func(key, size uint64, old pmem.PAddr) pmem.PAddr {
		t.Helper()
		blk := pmem.Null
		if size > 0 {
			var err error
			if blk, err = th.Reserve(size); err != nil {
				t.Fatal(err)
			}
		}
		get := search(func() { m.Get(th, key) })
		got := search(func() {
			cur := m.Find(th, key)
			defer cur.Release()
			if v, ok := cur.Value(); ok != (old != pmem.Null) || pmem.PAddr(v) != old {
				t.Fatalf("key %d: cursor reads %#x, %v; want %#x", key, v, ok, old)
			}
			if err := cur.Publish(th, blk, old); err != nil {
				t.Fatalf("key %d: %v", key, err)
			}
		})
		if got != get {
			t.Errorf("key %d: find and publish charged %d ns of search, one Get %d", key, got, get)
		}
		return blk
	}
	bound := map[uint64]pmem.PAddr{}
	for k := uint64(1); k <= 20; k++ {
		bound[k] = publish(k, 64, pmem.Null)
	}
	for _, k := range []uint64{2, 9, 20} {
		bound[k] = publish(k, 192, bound[k])
	}
	for _, k := range []uint64{1, 8, 17} {
		publish(k, 0, bound[k])
		delete(bound, k)
	}
	bound[17] = publish(17, 64, pmem.Null) // back into the slot it left

	blk, err := th.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	for k, old := range map[uint64]pmem.PAddr{2: bound[9], 9: pmem.Null, 1: bound[2]} {
		cur := m.Find(th, k)
		if err := cur.Publish(th, blk, old); !errors.Is(err, ErrStale) {
			t.Errorf("key %d published over %#x: %v, want ErrStale", k, old, err)
		}
		cur.Release()
	}
	if err := th.Unreserve(blk); err != nil {
		t.Fatalf("the refused block is no longer the caller's reservation: %v", err)
	}

	for k := uint64(1); k <= 20; k++ {
		if v, ok := m.Get(th, k); ok != (bound[k] != pmem.Null) || pmem.PAddr(v) != bound[k] {
			t.Errorf("Get(%d) = %#x, %v; want %#x", k, v, ok, bound[k])
		}
	}
	refs := map[pmem.PAddr]bool{}
	m.References(func(a pmem.PAddr) { refs[a] = true })
	h.(*core.Heap).Objects(func(o core.Object) bool {
		if !refs[o.Addr] {
			t.Errorf("%d-byte object at %#x is allocated and not referenced by the index", o.Size, o.Addr)
		}
		delete(refs, o.Addr)
		return true
	})
	if len(refs) != 0 {
		t.Errorf("the index references %d blocks that are not allocated", len(refs))
	}
}
