package nvalloc

import (
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
)

// larsonSim is one worker of a Larson stream played from one goroutine:
// every step frees a random slot's block and allocates its replacement of
// 64-256 B, and one step in 16 trades the new block with the neighbour,
// which frees it remotely later. The stream is benchmark/'s alloc-larson
// (same generator, slot count and hand-over rule).
type larsonSim struct {
	th    alloc.Thread
	rng   uint64 // splitmix64 state
	slots []pmem.PAddr
	inbox []pmem.PAddr // blocks the neighbour allocated for this worker
	out   *larsonSim
}

func (w *larsonSim) next() (slot int, size uint64, cross bool) {
	r := (*splitmix)(&w.rng).next()
	return int(r % uint64(len(w.slots))), 64 + (r>>16)%25*8, (r>>40)%16 == 0
}

func (w *larsonSim) malloc(t *testing.T, size uint64) pmem.PAddr {
	t.Helper()
	p, err := w.th.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newLarsonPair returns two workers on h at seed, each over slots slots
// and handing blocks to the other, every slot filled.
func newLarsonPair(t *testing.T, h alloc.Heap, seed uint64, slots int) []*larsonSim {
	ws := make([]*larsonSim, 2)
	for i := range ws {
		ws[i] = &larsonSim{th: h.NewThread(), rng: seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 7, slots: make([]pmem.PAddr, slots)}
	}
	for i, w := range ws {
		w.out = ws[(i+1)%len(ws)]
	}
	for _, w := range ws {
		for i := range w.slots {
			_, size, _ := w.next()
			w.slots[i] = w.malloc(t, size)
		}
	}
	return ws
}

func (w *larsonSim) step(t *testing.T) {
	slot, size, cross := w.next()
	if old := w.slots[slot]; old != pmem.Null {
		if err := w.th.Free(old); err != nil {
			t.Fatal(err)
		}
	}
	nb := w.malloc(t, size)
	if cross && len(w.out.inbox) < 64 {
		w.out.inbox = append(w.out.inbox, nb)
		if n := len(w.inbox); n > 0 {
			nb, w.inbox = w.inbox[0], w.inbox[1:]
		} else {
			nb = w.malloc(t, size)
		}
	}
	w.slots[slot] = nb
}

// TestLarsonSpaceGolden: a fixed two-thread Larson stream on the simulated
// device, played thread by thread from one goroutine as benchmark/'s
// virtual-time twin plays it. A heap commits only what it touches, its
// metadata regions included: Used is exactly the superblock bytes, the two
// WAL rings the threads append to, the bookkeeping log up to its break
// (its header and one chunk) and the slabs that hold the blocks. All of
// them are pinned, so a change to what the heap commits shows up here as a
// golden diff.
func TestLarsonSpaceGolden(t *testing.T) {
	const (
		wantSuper = 8192  // the null guard page and the superblock
		wantRing  = 33088 // a 1024-entry ring, 6-way
		wantRings = 2
		wantLog   = 1088 // the log header and one chunk
		wantSlabs = 18
		rounds    = 64 * 1024 // the benchmark's set-up: every slot replaced 64 times over
	)
	h, err := core.Create(pmem.New(pmem.Config{Size: 256 << 20}), core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	ws := newLarsonPair(t, h, 1, 1024)
	playLarson(t, ws, rounds, nil)
	slabs := 0
	for _, n := range h.LayoutCensus() {
		slabs += n
	}
	m := h.Metadata()
	if m.Superblock != wantSuper || m.RingBytes != wantRing || m.RingsInService != wantRings || m.LogBytes != wantLog || slabs != wantSlabs {
		t.Errorf("superblock %d B, %d rings of %d B, log %d B and %d slabs, want %d, %d of %d, %d and %d",
			m.Superblock, m.RingsInService, m.RingBytes, m.LogBytes, slabs, wantSuper, wantRings, wantRing, wantLog, wantSlabs)
	}
	want := uint64(wantSuper + wantRings*wantRing + wantLog + wantSlabs*slab.Size)
	if got := h.Used(); got != want {
		t.Errorf("Used %d, want the superblock, %d rings, the log to its break and %d slabs = %d", got, wantRings, wantSlabs, want)
	}
	if h.Peak() < h.Used() {
		t.Errorf("Peak %d below Used %d", h.Peak(), h.Used())
	}
}
