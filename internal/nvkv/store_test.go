package nvkv

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
)

func newStore(t *testing.T) (pmem.Dev, alloc.Heap, alloc.Thread, *Store) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	st, err := CreateStore(h, th, 0, StoreConfig{Buckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	return dev, h, th, st
}

func TestStoreBasic(t *testing.T) {
	_, _, th, st := newStore(t)
	defer th.Close()
	if err := st.Set(th, 1, []byte("k"), []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get(th, 2, []byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	// Overwrite frees the old record and replaces in place.
	if err := st.Set(th, 3, []byte("k"), []byte("v2-longer"), 0); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := st.Get(th, 4, []byte("k")); string(v) != "v2-longer" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if st.Len() != 1 {
		t.Fatalf("len %d", st.Len())
	}
	ok, err = st.Del(th, []byte("k"))
	if err != nil || !ok {
		t.Fatalf("del: %v %v", ok, err)
	}
	if _, ok, _ := st.Get(th, 5, []byte("k")); ok {
		t.Fatal("deleted key readable")
	}
	if ok, _ := st.Del(th, []byte("k")); ok {
		t.Fatal("double delete")
	}
	if st.Len() != 0 {
		t.Fatalf("len after del %d", st.Len())
	}
}

func TestStoreLimits(t *testing.T) {
	_, _, th, st := newStore(t)
	defer th.Close()
	if err := st.Set(th, 1, nil, []byte("v"), 0); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
	if err := st.Set(th, 1, make([]byte, MaxKeyLen+1), []byte("v"), 0); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("huge key: %v", err)
	}
	if _, _, err := st.Get(th, 1, nil); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("empty key get: %v", err)
	}
	big := make([]byte, MaxBulk+1)
	if err := st.Set(th, 1, []byte("k"), big, 0); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("huge value: %v", err)
	}
	// Empty values are legal.
	if err := st.Set(th, 1, []byte("k"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := st.Get(th, 2, []byte("k")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: %q %v %v", v, ok, err)
	}
}

func TestStoreExpiry(t *testing.T) {
	_, _, th, st := newStore(t)
	defer th.Close()
	if err := st.Set(th, 100, []byte("k"), []byte("v"), 50); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(th, 149, []byte("k")); !ok {
		t.Fatal("expired early")
	}
	if _, ok, _ := st.Get(th, 150, []byte("k")); ok {
		t.Fatal("not expired at deadline")
	}
	// Re-arm via Expire before expiry.
	if err := st.Set(th, 100, []byte("k2"), []byte("v"), 50); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Expire(th, 120, []byte("k2"), 1000); err != nil || !ok {
		t.Fatalf("expire: %v %v", ok, err)
	}
	if _, ok, _ := st.Get(th, 200, []byte("k2")); !ok {
		t.Fatal("re-armed key expired")
	}
	// Expire with ttl<=0 deletes.
	if ok, err := st.Expire(th, 200, []byte("k2"), 0); err != nil || !ok {
		t.Fatalf("expire 0: %v %v", ok, err)
	}
	if _, ok, _ := st.Get(th, 201, []byte("k2")); ok {
		t.Fatal("expire 0 left key")
	}
	// Expire on absent/expired keys reports false.
	if ok, _ := st.Expire(th, 300, []byte("k"), 100); ok {
		t.Fatal("expire on expired key")
	}
	if ok, _ := st.Expire(th, 300, []byte("nope"), 100); ok {
		t.Fatal("expire on absent key")
	}
	// A Set on the expired key reclaims and replaces it.
	if err := st.Set(th, 300, []byte("k"), []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := st.Get(th, 301, []byte("k")); !ok || string(v) != "v2" {
		t.Fatalf("reclaim: %q %v", v, ok)
	}
}

func TestStoreReopen(t *testing.T) {
	dev, h, th, st := newStore(t)
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		if err := st.Set(th, 1, []byte(k), []byte(v), 0); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 200; i += 3 {
		k := fmt.Sprintf("key-%d", i)
		if _, err := st.Del(th, []byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if f, ok := th.(alloc.Flusher); ok {
		f.Flush()
	}
	th.Close()
	_ = h

	h2, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(h2, 0, StoreConfig{Buckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	th2 := h2.NewThread()
	defer th2.Close()
	if got := st2.Len(); got != int64(len(want)) {
		t.Fatalf("reopened Len %d, want %d", got, len(want))
	}
	for k, v := range want {
		got, ok, err := st2.Get(th2, 1, []byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("reopened %s: %q %v %v", k, got, ok, err)
		}
	}
}

// TestStoreConcurrent exercises the stripe locking: disjoint and
// overlapping keys mutated from many goroutines, each with its own
// allocator thread (run under -race).
func TestStoreConcurrent(t *testing.T) {
	_, h, setup, st := newStore(t)
	setup.Close()
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			defer th.Close()
			for i := 0; i < perWorker; i++ {
				// Private key plus a shared hot key per round.
				priv := []byte(fmt.Sprintf("w%d-%d", w, i%17))
				val := []byte(fmt.Sprintf("v-%d-%d", w, i))
				if err := st.Set(th, int64(i), priv, val, 0); err != nil {
					errs[w] = err
					return
				}
				got, ok, err := st.Get(th, int64(i), priv)
				if err != nil || !ok || !bytes.Equal(got, val) {
					errs[w] = fmt.Errorf("w%d: readback %q %v %v", w, got, ok, err)
					return
				}
				hot := []byte("hot")
				switch i % 3 {
				case 0:
					if err := st.Set(th, int64(i), hot, val, 0); err != nil {
						errs[w] = err
						return
					}
				case 1:
					if _, _, err := st.Get(th, int64(i), hot); err != nil {
						errs[w] = err
						return
					}
				default:
					if _, err := st.Del(th, hot); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorePersistSchedule pins what each store mutation costs on the
// simulated device with a record that fits one cache line. Every mutation
// is one reserve → fill → publish group: the record's line (Set), the
// index key's line (a new key), one WAL entry, a fence over all of them,
// the index value word and its fence. Nothing else is flushed — the
// records' bitmap lines are written back at the ring's checkpoint — and no
// Malloc or Free is called: the group's one entry allocates the new record
// and frees the one it supersedes. With a malloc, an index Put and a free
// per Set this read 4/4 for a new key and 4/4 for a replace.
func TestStorePersistSchedule(t *testing.T) {
	type cost struct{ flushes, fences, reflushes, mallocs, frees, reserves, publishes int }
	_, _, inner, st := newStore(t)
	th := &alloc.CountingThread{Thread: inner}
	defer th.Close()

	// 16 header + 4 key + 40 value + 4 CRC = one 64-byte block.
	val := bytes.Repeat([]byte("v"), 40)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	// Warm-up pays the 64-byte class's slab format and lease.
	for i := 0; i < 4; i++ {
		if err := st.Set(th, 1, key(i), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	scratch, err := th.Malloc(8 * pmem.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	c := th.Ctx()
	measure := func(fn func() error) cost {
		t.Helper()
		// Empty the reflush window so only the operation's own count.
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

	expect("Set new", measure(func() error { return st.Set(th, 1, key(100), val, 0) }),
		cost{flushes: 4, fences: 2, reserves: 1, publishes: 1})
	expect("Set replace", measure(func() error { return st.Set(th, 1, key(0), val, 0) }),
		cost{flushes: 3, fences: 2, reserves: 1, publishes: 1})
	expect("Expire", measure(func() error { _, err := st.Expire(th, 1, key(1), 1000); return err }),
		cost{flushes: 1, fences: 1})
	expect("Del", measure(func() error { _, err := st.Del(th, key(2)); return err }),
		cost{flushes: 2, fences: 2, publishes: 1})
	expect("Expire now", measure(func() error { _, err := st.Expire(th, 1, key(3), 0); return err }),
		cost{flushes: 2, fences: 2, publishes: 1})
	if st.Len() != 3 {
		t.Fatalf("Len %d, want 3", st.Len())
	}
}

// TestMutationProbesIndexOnce: a mutation looks its key up and commits on
// the slot that one probe found. On the simulated device, where a chain
// scan is charged per bucket, every mutation costs the search time of one
// Get of the same key in the state it was in; looking up and then
// publishing by key read twice that.
func TestMutationProbesIndexOnce(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	// One directory bucket, so keys sit up to three buckets down a chain.
	st, err := CreateStore(h, th, 0, StoreConfig{Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 40)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for i := 0; i < 20; i++ {
		if err := st.Set(th, 1, key(i), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := th.Ctx()
	search := func(fn func() error) int64 {
		t.Helper()
		before := c.Local().CatNS[pmem.CatSearch]
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return c.Local().CatNS[pmem.CatSearch] - before
	}
	for _, tc := range []struct {
		what string
		key  []byte
		op   func(k []byte) error
	}{
		{"Set new", key(100), func(k []byte) error { return st.Set(th, 1, k, val, 0) }},
		{"Set replace", key(3), func(k []byte) error { return st.Set(th, 1, k, val, 0) }},
		{"Set replace, down the chain", key(19), func(k []byte) error { return st.Set(th, 1, k, val, 0) }},
		{"Del", key(17), func(k []byte) error { _, err := st.Del(th, k); return err }},
		{"Expire", key(10), func(k []byte) error { _, err := st.Expire(th, 1, k, 1000); return err }},
		{"Expire now", key(9), func(k []byte) error { _, err := st.Expire(th, 1, k, 0); return err }},
	} {
		get := search(func() error { _, _, err := st.Get(th, 1, tc.key); return err })
		if got := search(func() error { return tc.op(tc.key) }); got != get || get == 0 {
			t.Errorf("%s: %d ns of search, one Get of the key %d", tc.what, got, get)
		}
	}
	if st.Len() != 19 {
		t.Fatalf("Len %d, want 19", st.Len())
	}
}

// TestOpenStoreRejectsOldIndexLayout: the format guard of phash.Open must
// reach the caller of OpenStore as a typed error.
func TestOpenStoreRejectsOldIndexLayout(t *testing.T) {
	dev, h, th, _ := newStore(t)
	defer th.Close()
	header := pmem.PAddr(dev.ReadU64(h.RootSlot(0)))
	for _, magic := range []uint64{
		0x5048415348363421, // "PHASH64!", the blob-per-entry layout
		0x5048415348763221, // "PHASHv2!", the fingerprint-word layout
	} {
		dev.WriteU64(header, magic)
		_, err := OpenStore(h, 0, StoreConfig{})
		var fe *phash.FormatError
		if !errors.As(err, &fe) || fe.Magic != magic {
			t.Fatalf("OpenStore over magic %#x: %v, want a *phash.FormatError naming it", magic, err)
		}
	}
}

// TestStatsReportMetadataInService: on an NVAlloc heap STATS adds the
// metadata in service against what its regions reserve and the free
// extents by what backs them, every line a name and an unsigned count;
// the metadata parts add up to the total, and dirty free space is part of
// used_bytes.
func TestStatsReportMetadataInService(t *testing.T) {
	_, _, th, st := newStore(t)
	defer th.Close()
	if err := st.Set(th, 1, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	stats := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSuffix(st.StatsText(), "\n"), "\n") {
		k, v, ok := strings.Cut(line, ":")
		n, err := strconv.ParseUint(v, 10, 64)
		if !ok || err != nil {
			t.Fatalf("STATS line %q is not name:count", line)
		}
		stats[k] = n
	}
	if stats["wal_rings_in_service"] != 1 || stats["wal_rings"] != 16 {
		t.Errorf("%d of %d rings in service, want 1 of 16", stats["wal_rings_in_service"], stats["wal_rings"])
	}
	if stats["blog_bytes"] == 0 || stats["blog_bytes"] >= stats["blog_region_bytes"] {
		t.Errorf("log %d B to its break of a %d B region", stats["blog_bytes"], stats["blog_region_bytes"])
	}
	sum := stats["meta_superblock_bytes"] + stats["wal_rings_in_service"]*stats["wal_ring_bytes"] + stats["blog_bytes"]
	if stats["meta_bytes"] != sum || stats["meta_bytes"] >= stats["meta_reserved_bytes"] {
		t.Errorf("meta_bytes %d, want its parts' sum %d, below the %d B reserved", stats["meta_bytes"], sum, stats["meta_reserved_bytes"])
	}

	// A freed large value is dirty free space, counted in used_bytes; the
	// growth no carve has reached is retained.
	k, big := []byte("big"), make([]byte, 1<<20)
	if err := st.Set(th, 1, k, big, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Del(th, k); err != nil {
		t.Fatal(err)
	}
	stats = map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSuffix(st.StatsText(), "\n"), "\n") {
		k, v, _ := strings.Cut(line, ":")
		stats[k], _ = strconv.ParseUint(v, 10, 64)
	}
	dirty, retained := stats["free_dirty_bytes"], stats["free_retained_bytes"]
	if dirty < 1<<20 || retained == 0 {
		t.Errorf("free_dirty_bytes %d and free_retained_bytes %d after a 1 MiB value was freed, want at least 1 MiB and above 0", dirty, retained)
	}
	if used := stats["used_bytes"]; used < stats["meta_bytes"]+dirty {
		t.Errorf("used_bytes %d, want the meta_bytes %d and the dirty %d in it", used, stats["meta_bytes"], dirty)
	}
}
