package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"nvalloc/internal/traffic"
)

// workload is one named traffic mix. The names and shapes are fixed by
// BENCHMARK.json; sizes are stated relative to the system's own
// structures because behaviour depends on them (see README.md).
type workload struct {
	name string
	// service is false only for alloc-larson, which embeds the allocator
	// directly and runs no server.
	service bool
	// mix holds op shares in percent indexed by traffic.OpKind
	// (GET, SET, DEL, EXPIRE).
	mix [4]int
	// sizes[0] serves the first half of each timed phase and sizes[1]
	// the second (kv-churn's size-class shift); most workloads repeat
	// one set.
	sizes [2][]int
	// universe is the key space; keys [0, preload) exist before timing.
	universe, preload uint64
	zipf              float64
	// rates are the three open-loop arrival rates in ops/s (bursts/s
	// for alloc-larson).
	rates    [3]int
	heapSize uint64
	// simOps is how many ops of connection 0's stream the virtual-time
	// twin replays; ladderOps sizes each rung of the traced ladder.
	simOps, ladderOps int
	// setupRef is what the reference work timed beside every set-up
	// takes on the sizing machine in a quiet hour (2 vCPUs, conns = 2).
	// It only scales setup_s back to seconds: see reportSetup.
	setupRef time.Duration
}

var workloads = []workload{
	{
		name: "kv-read", service: true,
		mix:      [4]int{95, 5, 0, 0},
		sizes:    [2][]int{{64, 96, 128, 192, 256}, {64, 96, 128, 192, 256}},
		universe: 100_000, preload: 100_000, zipf: 0.99,
		rates:    [3]int{20_000, 40_000, 80_000},
		heapSize: 256 << 20, simOps: 200_000, ladderOps: 128_000,
		setupRef: 90 * time.Millisecond,
	},
	{
		name: "kv-churn", service: true,
		mix:      [4]int{10, 55, 30, 5},
		sizes:    [2][]int{{16, 64, 256, 1024}, {48, 192, 768}},
		universe: 1_000_000, preload: 600_000, zipf: 0.99,
		rates:    [3]int{20_000, 40_000, 80_000},
		heapSize: 768 << 20, simOps: 200_000, ladderOps: 128_000,
		setupRef: 600 * time.Millisecond,
	},
	{
		name: "kv-large", service: true,
		mix:      [4]int{50, 45, 5, 0},
		sizes:    [2][]int{{32 << 10, 64 << 10, 128 << 10}, {32 << 10, 64 << 10, 128 << 10}},
		universe: 2_000, preload: 2_000, zipf: 0.9,
		rates:    [3]int{1_000, 2_000, 4_000},
		heapSize: 512 << 20, simOps: 24_000, ladderOps: 6_400,
		setupRef: 77 * time.Millisecond,
	},
	{
		name:  "alloc-larson",
		sizes: [2][]int{{64, 256}, {64, 256}}, // uniform in [64, 256], step 8
		rates: [3]int{2_500, 5_000, 10_000},
		// 1 024 slots per goroutine; the heap only has to hold them.
		heapSize: 256 << 20, simOps: 200_000, ladderOps: 256_000,
		setupRef: 21 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) maxValue() int {
	m := 0
	for _, set := range w.sizes {
		for _, s := range set {
			if s > m {
				m = s
			}
		}
	}
	return m
}

// splitmix is the benchmark's only randomness source: inputs are a pure
// function of -seed, independent of the Go release's math/rand.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipfGen draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^theta for
// theta in (0, 1) — Gray et al.'s generator, the one YCSB uses.
// math/rand's Zipf needs an exponent above 1, which the workloads'
// 0.99 and 0.9 are not.
type zipfGen struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n uint64, theta float64) *zipfGen {
	zeta := func(n uint64) float64 {
		var z float64
		for i := uint64(1); i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	zetan := zeta(n)
	return &zipfGen{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipfGen) rank(r *splitmix) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// valuePool holds the payload bytes of every SET. traffic.VerifyAcked
// regenerates a value as traffic.ValBytes(key, seq, size), a byte-at-a-
// time generator that would cost the client more than a 128 KiB SET
// costs the server. ValBytes seeds its state with key*A + seq*B + C, so
// for any key there is a seq that reproduces the state of pool entry j
// (B is odd, hence invertible mod 2^64): the client copies payloads out
// of 64 pre-generated buffers and still hands VerifyAcked an exact
// (seq, size) pair. Every GET body is self-describing: its first eight
// bytes name the pool entry, and the whole body must match it.
type valuePool struct {
	bufs   [][]byte
	byHead map[uint64]int
	kmul   uint64 // A * B^-1
}

const (
	poolEntries = 64
	valA        = 0x9E3779B97F4A7C15 // traffic.ValBytes' key multiplier
	valB        = 0xD1B54A32D192ED03 // ... and seq multiplier
	minValue    = 16
)

func newValuePool(maxSize int) (*valuePool, error) {
	binv := uint64(valB) // Newton's iteration doubles the correct low bits
	for i := 0; i < 6; i++ {
		binv *= 2 - valB*binv
	}
	p := &valuePool{byHead: make(map[uint64]int, poolEntries), kmul: valA * binv}
	for j := 0; j < poolEntries; j++ {
		b := traffic.ValBytes(0, uint64(j+1), maxSize)
		p.bufs = append(p.bufs, b)
		p.byHead[binary.LittleEndian.Uint64(b)] = j
	}
	if len(p.byHead) != poolEntries {
		return nil, fmt.Errorf("value pool: two entries share a head")
	}
	// The constants above are copied from traffic.ValBytes; fail loudly
	// if it ever changes shape, since the durability oracle depends on it.
	for _, key := range []uint64{0, 1, 12345, 999_999} {
		j := int(key % poolEntries)
		if !bytes.Equal(traffic.ValBytes(key, p.seq(key, j), minValue), p.bufs[j][:minValue]) {
			return nil, fmt.Errorf("value pool: traffic.ValBytes no longer matches the pool algebra")
		}
	}
	return p, nil
}

// seq is the sequence number under which traffic.ValBytes(key, seq, n)
// equals the first n bytes of pool entry j.
func (p *valuePool) seq(key uint64, j int) uint64 { return uint64(j+1) - key*p.kmul }

func (p *valuePool) value(j, size int) []byte { return p.bufs[j][:size] }

// selfCheck verifies a GET body without knowing which SET wrote it.
func (p *valuePool) selfCheck(body []byte) bool {
	if len(body) < minValue || len(body) > len(p.bufs[0]) {
		return false
	}
	j, ok := p.byHead[binary.LittleEndian.Uint64(body)]
	return ok && bytes.Equal(body, p.bufs[j][:len(body)])
}

// op is one generated operation.
type op struct {
	kind  traffic.OpKind
	key   uint64
	size  int   // SET payload size
	pool  int   // SET payload pool entry
	ttlMs int64 // EXPIRE argument
}

// stream generates one connection's ops. Mutations are sharded onto the
// connection's congruence class (key % conns == conn) so the last
// acknowledged mutation per key is well defined; GETs keep the full
// zipfian skew across all shards.
type stream struct {
	w           *workload
	rng         splitmix
	zipf        *zipfGen
	conn, conns uint64
	// half selects the size set; the phase driver flips it at half time,
	// the replays at half their op count.
	half int
	// writesOnly turns every GET into a SET (the crash phase's traffic).
	writesOnly bool
	// scramble spreads zipf ranks over the key space so that hot keys
	// are not all low ids (and therefore not all preloaded).
	scramble uint64
}

func newStream(w *workload, z *zipfGen, seed uint64, conn, conns int) *stream {
	s := &stream{w: w, zipf: z, conn: uint64(conn), conns: uint64(conns)}
	s.rng = splitmix(seed*0x9E3779B97F4A7C15 + uint64(conn)*0xBF58476D1CE4E5B9 + 1)
	// Any odd multiplier coprime to the universe is a bijection on it.
	s.scramble = 2654435761
	for gcd(s.scramble, w.universe) != 1 {
		s.scramble += 2
	}
	return s
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (s *stream) next() op {
	r := s.rng.next()
	p := int(r % 100)
	kind := traffic.OpGet
	for k, share := range s.w.mix {
		if p < share {
			kind = traffic.OpKind(k)
			break
		}
		p -= share
	}
	if s.writesOnly && kind == traffic.OpGet {
		kind = traffic.OpSet
	}
	key := s.zipf.rank(&s.rng) * s.scramble % s.w.universe
	if kind != traffic.OpGet {
		key = key - key%s.conns + s.conn
		if key >= s.w.universe {
			key -= s.conns
		}
	}
	o := op{kind: kind, key: key}
	switch kind {
	case traffic.OpSet:
		set := s.w.sizes[s.half]
		o.size = set[(r>>8)%uint64(len(set))]
		o.pool = int((r >> 24) % poolEntries)
	case traffic.OpExpire:
		// At least ten minutes: expiry never fires inside a run, so an
		// EXPIRE changes a key's expiry word and nothing the oracle sees.
		o.ttlMs = 600_000 + int64((r>>8)%600_000)
	}
	return o
}

// preloadOp is the SET that creates key before timing starts.
func (w *workload) preloadOp(seed, key uint64) op {
	r := splitmix(seed ^ key*0xD1B54A32D192ED03)
	x := r.next()
	set := w.sizes[0]
	return op{kind: traffic.OpSet, key: key, size: set[x%uint64(len(set))], pool: int((x >> 24) % poolEntries)}
}

// streamHash fingerprints the first n ops of every connection's stream;
// the determinism self-test and the run header both print it.
func streamHash(w *workload, z *zipfGen, seed uint64, conns, n int) uint64 {
	h := fnv.New64a()
	var buf [40]byte
	for c := 0; c < conns; c++ {
		s := newStream(w, z, seed, c, conns)
		for i := 0; i < n; i++ {
			if i == n/2 {
				s.half = 1
			}
			o := s.next()
			binary.LittleEndian.PutUint64(buf[0:], uint64(o.kind))
			binary.LittleEndian.PutUint64(buf[8:], o.key)
			binary.LittleEndian.PutUint64(buf[16:], uint64(o.size))
			binary.LittleEndian.PutUint64(buf[24:], uint64(o.pool))
			binary.LittleEndian.PutUint64(buf[32:], uint64(o.ttlMs))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// keyState is what the client knows about one key. Only the connection
// (or replay) that owns the key's shard reads or writes its entry.
type keyState struct {
	size    uint32
	pool    uint8
	present bool
	// touched: mutated since the last durability verification.
	// ever: mutated or preloaded at any point in this run.
	touched, ever bool
}

// model is the shadow of the store: a flat array over the key universe.
type model []keyState

// expect is the reply a correct server must give, fixed when the op is
// sent: on one connection the server executes in order, so the state a
// command sees is the state after everything sent before it.
type expect struct {
	// exact is set for keys of the sender's own shard; other GETs can
	// only be checked for payload integrity.
	exact   bool
	present bool
	size    int
	pool    int
}

// apply folds o into the model as sent and returns what to expect back.
func (m model) apply(o op, own bool) expect {
	if !own {
		return expect{}
	}
	ks := &m[o.key]
	e := expect{exact: true, present: ks.present, size: int(ks.size), pool: int(ks.pool)}
	switch o.kind {
	case traffic.OpSet:
		*ks = keyState{size: uint32(o.size), pool: uint8(o.pool), present: true, touched: true, ever: true}
	case traffic.OpDel:
		*ks = keyState{touched: true, ever: true}
	case traffic.OpExpire:
		ks.touched, ks.ever = true, true
	}
	return e
}

// liveBytes is the user data the client knows to be present: key names
// plus values, the denominator of space_amp.
func (m model) liveBytes() (keys, bytes uint64) {
	for k := range m {
		if m[k].present {
			keys++
			bytes += uint64(len(traffic.KeyName(uint64(k)))) + uint64(m[k].size)
		}
	}
	return
}
