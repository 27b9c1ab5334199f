package nvalloc

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/baseline"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
)

var twinUpdate = flag.Bool("twin.update", false, "rewrite sim_golden.json from this run (refused in CI and when a stream fails)")

// simGoldenFile holds one row per (stream, seed) of TestSimGolden.
const simGoldenFile = "sim_golden.json"

// simRow is what one virtual-time stream measures: its timed phase's ops,
// virtual nanoseconds, flushes and fences, then every time and count of
// the core.Open that recovers the heap dropped after it. Every column is
// an integer, so the golden compares by exact equality.
type simRow struct {
	Stream  string `json:"stream"`
	Seed    uint64 `json:"seed"`
	Ops     int64  `json:"ops"`
	NS      int64  `json:"ns"`
	Flushes uint64 `json:"flushes"`
	Fences  uint64 `json:"fences"`

	BookLogNS  int64 `json:"rec_book_log_ns"`
	ExtentNS   int64 `json:"rec_extent_ns"`
	SlabNS     int64 `json:"rec_slab_ns"`
	WALNS      int64 `json:"rec_wal_ns"`
	StateNS    int64 `json:"rec_state_ns"`
	SlabWorkNS int64 `json:"rec_slab_work_ns"`
	WALWorkNS  int64 `json:"rec_wal_work_ns"`

	SlabsOpened      int `json:"rec_slabs_opened"`
	BitmapsBuilt     int `json:"rec_bitmaps_built"`
	BitsChecked      int `json:"rec_bits_checked"`
	ExtentsIndexed   int `json:"rec_extents_indexed"`
	EntriesReplayed  int `json:"rec_entries_replayed"`
	EntriesRetired   int `json:"rec_entries_retired"`
	LinesWrittenBack int `json:"rec_lines_written_back"`

	// A baseline stream's row: Used at the drop, and the virtual ns of the
	// baseline.Open that recovers it and of the one after a clean Close.
	Used      uint64 `json:"used,omitempty"`
	CrashedNS int64  `json:"rec_crashed_ns,omitempty"`
	CleanNS   int64  `json:"rec_clean_ns,omitempty"`
}

// simRun plays one stream at one seed on a fresh simulated device. It
// returns the row, recovery columns empty, the device to recover and a
// check of what the recovered heap must hold.
type simRun func(t *testing.T, seed uint64) (simRow, pmem.Dev, func(h *core.Heap) error)

type simStream struct {
	name string
	run  func(t *testing.T, seed uint64) simRow
}

// simStreams are the golden's streams: the benchmark's three shapes, each a
// single session from one goroutine, so a row is a pure function of its
// seed, then a Larson stream on each baseline. None replays the benchmark's
// op bytes.
var simStreams = []simStream{
	{"larson", recoverCore(simLarson)},
	{"kv-churn", recoverCore(simKV(kvChurn))},
	{"kv-read", recoverCore(simKV(kvRead))},
	{"larson-PMDK", simBaseline(baseline.PMDK)},
	{"larson-nvm_malloc", simBaseline(baseline.NvmMalloc)},
	{"larson-PAllocator", simBaseline(baseline.PAllocator)},
	{"larson-Makalu", simBaseline(baseline.Makalu)},
	{"larson-Ralloc", simBaseline(baseline.Ralloc)},
}

var simSeeds = []uint64{1, 2, 3}

// splitmix is the streams' seeded generator (splitmix64), the one the
// benchmark's Larson stream draws from.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func simOptions() core.Options { return core.DefaultOptions(core.LOG) }

// simLarson is larsonSim's two workers, every slot filled, then 2 × 65 536
// steps timed, the workers taking turns: every slot is replaced 64 times
// over, as in the benchmark's set-up.
func simLarson(t *testing.T, seed uint64) (simRow, pmem.Dev, func(*core.Heap) error) {
	const rounds = 64 * 1024
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	h, err := core.Create(dev, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	ws := newLarsonPair(t, h, seed, 1024)
	row := playLarson(t, ws, rounds, nil)
	check := func(h *core.Heap) error {
		for _, w := range ws {
			for _, p := range append(w.slots, w.inbox...) {
				if !h.BlockAllocated(p) {
					return fmt.Errorf("held block %#x is free after recovery", p)
				}
			}
		}
		return nil
	}
	return row, dev, check
}

// kvShape is a store stream: keys [0, preload) are set first, then ops
// draws GET / SET / DEL by weight, values sized from sizes[0] for the
// first half and sizes[1] for the second.
type kvShape struct {
	buckets, universe, preload, ops int
	mix                             [3]int // GET, SET, DEL weights out of 100
	sizes                           [2][]int
}

var (
	// kvChurn keeps 2.3 keys per directory slot, so chains overflow, and
	// shifts its value sizes at half time, as kv-churn does.
	kvChurn = kvShape{buckets: 1 << 11, universe: 64_000, preload: 38_000, ops: 100_000,
		mix: [3]int{10, 60, 30}, sizes: [2][]int{{16, 64, 256, 1024}, {48, 192, 768}}}
	// kvRead is 95 % GET over a preloaded key set that fits the directory.
	kvRead = kvShape{buckets: 1 << 12, universe: 20_000, preload: 20_000, ops: 100_000,
		mix: [3]int{95, 5, 0}, sizes: [2][]int{{64, 96, 128, 192, 256}, {64, 96, 128, 192, 256}}}
)

// simKV is the store stream of shape w.
func simKV(w kvShape) simRun {
	return func(t *testing.T, seed uint64) (simRow, pmem.Dev, func(*core.Heap) error) {
		dev := pmem.New(pmem.Config{Size: 128 << 20})
		h, err := core.Create(dev, simOptions())
		if err != nil {
			t.Fatal(err)
		}
		th := h.NewThread()
		st, err := nvkv.CreateStore(h, th, 0, nvkv.StoreConfig{Buckets: w.buckets})
		if err != nil {
			t.Fatal(err)
		}
		rng := splitmix(seed)
		val := bytes.Repeat([]byte{0xA5}, 1024)
		live := make([]bool, w.universe)
		keys := 0
		var now int64
		do := func(kind int, k int, sizes []int) {
			now += 1e6
			key := []byte(fmt.Sprintf("u%d", k))
			switch kind {
			case 0:
				if _, ok, err := st.Get(th, now, key); err != nil || ok != live[k] {
					t.Fatalf("GET %s: present=%v, %v; want present=%v", key, ok, err, live[k])
				}
			case 1:
				if err := st.Set(th, now, key, val[:sizes[rng.next()%uint64(len(sizes))]], 0); err != nil {
					t.Fatalf("SET %s: %v", key, err)
				}
				if !live[k] {
					live[k], keys = true, keys+1
				}
			case 2:
				if ok, err := st.Del(th, key); err != nil || ok != live[k] {
					t.Fatalf("DEL %s: removed=%v, %v; want %v", key, ok, err, live[k])
				}
				if live[k] {
					live[k], keys = false, keys-1
				}
			}
		}
		for k := 0; k < w.preload; k++ {
			do(1, k, w.sizes[0])
		}
		c := th.Ctx()
		before := c.Local()
		row := simRow{Ops: int64(w.ops), NS: -c.Now}
		for i := 0; i < w.ops; i++ {
			r := rng.next()
			kind, pick := 0, int(r%100)
			for pick >= w.mix[kind] {
				pick -= w.mix[kind]
				kind++
			}
			do(kind, int(r>>32%uint64(w.universe)), w.sizes[2*i/w.ops])
		}
		row.NS += c.Now
		row.Flushes = c.Local().Flushes - before.Flushes
		row.Fences = c.Local().Fences - before.Fences
		check := func(h *core.Heap) error {
			st, err := nvkv.OpenStore(h, 0, nvkv.StoreConfig{})
			if err != nil {
				return err
			}
			if st.Len() != int64(keys) {
				return fmt.Errorf("%d keys after recovery, the stream left %d", st.Len(), keys)
			}
			return nil
		}
		return row, dev, check
	}
}

// recoverCore plays stream run, drops its heap without Close, recovers it
// with core.Open and fills the row's recovery columns.
func recoverCore(run simRun) func(*testing.T, uint64) simRow {
	return func(t *testing.T, seed uint64) simRow {
		row, dev, check := run(t, seed)
		h, _, err := core.Open(dev, simOptions())
		if err != nil {
			t.Fatalf("core.Open after drop: %v", err)
		}
		r := h.Recovery()
		if !r.Crashed {
			t.Fatal("the dropped heap reopened as cleanly closed")
		}
		if err := check(h); err != nil {
			t.Fatal(err)
		}
		row.BookLogNS, row.ExtentNS, row.SlabNS, row.WALNS, row.StateNS = r.BookLogNS, r.ExtentNS, r.SlabNS, r.WALNS, r.StateNS
		row.SlabWorkNS, row.WALWorkNS = r.SlabWorkNS, r.WALWorkNS
		row.SlabsOpened, row.BitmapsBuilt, row.BitsChecked = r.SlabsOpened, r.BitmapsBuilt, r.BitsChecked
		row.ExtentsIndexed, row.EntriesReplayed, row.EntriesRetired, row.LinesWrittenBack = r.ExtentsIndexed, r.EntriesReplayed, r.EntriesRetired, r.LinesWrittenBack
		return row
	}
}

// playLarson times rounds of the workers' steps, the workers taking turns,
// and returns the row of that phase; each, if set, runs after worker j's
// step of round i.
func playLarson(t *testing.T, ws []*larsonSim, rounds int, each func(i, j int, w *larsonSim)) simRow {
	var row simRow
	var before []pmem.Stats
	for _, w := range ws {
		before = append(before, w.th.Ctx().Local())
		row.NS -= w.th.Ctx().Now
	}
	for i := 0; i < rounds; i++ {
		for j, w := range ws {
			w.step(t)
			if each != nil {
				each(i, j, w)
			}
		}
	}
	for i, w := range ws {
		c := w.th.Ctx()
		row.NS += c.Now
		row.Flushes += c.Local().Flushes - before[i].Flushes
		row.Fences += c.Local().Fences - before[i].Fences
	}
	row.Ops = int64(rounds * len(ws))
	return row
}

// simBaseline is a Larson stream on baseline cfg: two handles over 256
// slots each, played from one goroutine, with larsonSim's remote hand-off,
// a 40 KiB extent replaced every 64th round and a root slot published or
// detached every 32nd. The heap is then dropped and reopened by
// baseline.Open, used for a short session, closed and reopened clean.
func simBaseline(cfg baseline.Config) func(*testing.T, uint64) simRow {
	return func(t *testing.T, seed uint64) simRow {
		const rounds = 20_000
		dev := pmem.New(pmem.Config{Size: 64 << 20})
		h, err := baseline.New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := newLarsonPair(t, h, seed, 256)
		extents := make([]pmem.PAddr, len(ws))
		row := playLarson(t, ws, rounds, func(i, j int, w *larsonSim) {
			if i%64 == 0 {
				if extents[j] != pmem.Null {
					if err := w.th.Free(extents[j]); err != nil {
						t.Fatal(err)
					}
				}
				extents[j] = w.malloc(t, 40<<10)
			}
			if i%32 == 0 {
				var err error
				if slot := h.RootSlot(j); dev.ReadU64(slot) == 0 {
					_, err = alloc.MallocTo(w.th, slot, 64+uint64(i%4)*64)
				} else {
					err = alloc.FreeFrom(w.th, slot)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		row.Used = h.Used()
		roots := []uint64{dev.ReadU64(h.RootSlot(0)), dev.ReadU64(h.RootSlot(1))}

		h2, ns, err := baseline.Open(dev, cfg)
		if err != nil {
			t.Fatalf("baseline.Open after drop: %v", err)
		}
		row.CrashedNS = ns
		for i, want := range roots {
			if got := dev.ReadU64(h2.RootSlot(i)); got != want {
				t.Fatalf("root slot %d holds %#x after recovery, the stream left %#x", i, got, want)
			}
		}
		th := h2.NewThread()
		w := &larsonSim{th: th, rng: seed, slots: make([]pmem.PAddr, 64)}
		for j := range w.slots {
			_, size, _ := w.next()
			w.slots[j] = w.malloc(t, size)
		}
		for _, p := range w.slots {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		if err := h2.Close(); err != nil {
			t.Fatal(err)
		}
		if _, row.CleanNS, err = baseline.Open(dev, cfg); err != nil {
			t.Fatalf("baseline.Open after Close: %v", err)
		}
		return row
	}
}

// TestSimGolden holds every stream at every seed to sim_golden.json by
// exact equality: virtual time is a pure function of (stream, seed), so
// any move is the code's, and the file's rows at the other seeds show how
// far a seed alone moves the same column. -twin.update rewrites the file.
func TestSimGolden(t *testing.T) {
	if *twinUpdate && os.Getenv("CI") != "" {
		t.Fatal("-twin.update is disabled in CI: the golden is an input, not an output, there")
	}
	var rows []simRow
	for _, s := range simStreams {
		for _, seed := range simSeeds {
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				row := s.run(t, seed)
				row.Stream, row.Seed = s.name, seed
				rows = append(rows, row)
			})
		}
	}
	if t.Failed() {
		return // a failed stream neither compares nor rewrites
	}
	all := len(rows) == len(simStreams)*len(simSeeds) // not narrowed by -run
	if *twinUpdate {
		if !all {
			t.Fatalf("-twin.update on %d of %d rows: run every stream", len(rows), len(simStreams)*len(simSeeds))
		}
		var b strings.Builder
		b.WriteString("[\n")
		for i, r := range rows {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString("  ")
			b.Write(line)
			if i < len(rows)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("]\n")
		if err := os.WriteFile(simGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), simGoldenFile)
		return
	}
	data, err := os.ReadFile(simGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestSimGolden -twin.update .)", err)
	}
	var golden []simRow
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", simGoldenFile, err)
	}
	want := make(map[string]simRow, len(golden))
	for _, g := range golden {
		want[fmt.Sprintf("%s/seed%d", g.Stream, g.Seed)] = g
	}
	if all && len(want) != len(rows) {
		t.Errorf("%s has %d rows, the run %d", simGoldenFile, len(want), len(rows))
	}
	rt := reflect.TypeOf(simRow{})
	for _, got := range rows {
		id := fmt.Sprintf("%s/seed%d", got.Stream, got.Seed)
		g, ok := want[id]
		if !ok {
			t.Errorf("%s: no row in %s", id, simGoldenFile)
			continue
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(g)
		for i := 0; i < rt.NumField(); i++ {
			if a, b := gv.Field(i).Interface(), wv.Field(i).Interface(); a != b {
				column, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
				t.Errorf("stream %s seed %d column %s: %v, golden %v", got.Stream, got.Seed, column, a, b)
			}
		}
	}
}
