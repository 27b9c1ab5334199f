package traffic

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"

	"nvalloc/internal/alloc"
	"nvalloc/internal/nvkv"
)

// Deterministic replay: internal/crashmc's kv-session family records one
// traffic script against a virtual-time server, closing each operation's
// flush window as its reply is read (Replay's acked hook), then cuts the
// device image at every persistence boundary and holds the recovered
// store to the acknowledged-durability oracle:
//
//   - every acknowledged SET is readable with exactly the acknowledged
//     bytes;
//   - every acknowledged DEL stays deleted;
//   - the single operation in flight at the boundary may be observed
//     either not-at-all or fully (its key in the pre- or post-state),
//     and no other key moves.
//
// The script's logical clock makes expiry deterministic: operation i
// executes at NowAt(i), and recovered-state probes use a probe time
// after the whole script, so a key's expected visibility is a pure
// function of the model.

// OpKind enumerates replayable operations.
type OpKind uint8

// Replay operation kinds.
const (
	OpGet OpKind = iota
	OpSet
	OpDel
	OpExpire
)

func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDel:
		return "del"
	case OpExpire:
		return "expire"
	}
	return "?"
}

// Op is one scripted operation.
type Op struct {
	Kind OpKind
	Key  string
	// Val is the SET payload.
	Val []byte
	// TTLms is the expiry argument: for SET, 0 means no expiry; for
	// EXPIRE, <= 0 deletes the key (the redis convention).
	TTLms int64
}

// Script is a deterministic operation sequence.
type Script struct {
	Seed uint64
	Ops  []Op
	// Keys is the key universe the script draws from (the oracle sweeps
	// it to assert absences as well as presences).
	Keys []string
}

// NowAt is the logical service clock when operation i executes: 1 ms of
// virtual time per operation, so TTLms arguments line up with op counts.
func NowAt(i int) int64 { return int64(i+1) * 1e6 }

// ProbeNow is the clock used for all recovered-state probes of a script
// of n ops: strictly after every operation, so lazily expired keys have
// deterministically expired.
func ProbeNow(n int) int64 { return NowAt(n) + 1 }

// GenScript builds a deterministic script: zipfian key popularity over a
// small universe (hot keys see most of the churn — overwrites, deletes
// and re-inserts), a mixed op distribution, mixed value sizes including
// extent-class payloads, and both far-future and already-expiring TTLs.
func GenScript(seed uint64, nOps, keys int) Script {
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	universe := make([]string, keys)
	for i := range universe {
		universe[i] = "k" + strconv.Itoa(i)
	}
	sizes := []int{8, 24, 100, 480, 4000, 40 << 10}
	sizeW := []int{30, 25, 25, 12, 6, 2}
	ops := make([]Op, 0, nOps)
	for i := 0; i < nOps; i++ {
		key := universe[zipf.Uint64()]
		switch p := rng.Intn(100); {
		case p < 40: // SET
			n := sizes[weighted(rng, sizeW)]
			val := make([]byte, n)
			rng.Read(val)
			var ttl int64
			if rng.Intn(5) == 0 {
				// A fifth of sets carry a TTL; half of those are short
				// enough to expire within the script.
				if rng.Intn(2) == 0 {
					ttl = int64(1 + rng.Intn(nOps/2))
				} else {
					ttl = int64(nOps * 10)
				}
			}
			ops = append(ops, Op{Kind: OpSet, Key: key, Val: val, TTLms: ttl})
		case p < 65: // GET
			ops = append(ops, Op{Kind: OpGet, Key: key})
		case p < 82: // DEL
			ops = append(ops, Op{Kind: OpDel, Key: key})
		default: // EXPIRE
			ttl := int64(1 + rng.Intn(nOps*2))
			if rng.Intn(8) == 0 {
				ttl = 0 // immediate delete
			}
			ops = append(ops, Op{Kind: OpExpire, Key: key, TTLms: ttl})
		}
	}
	return Script{Seed: seed, Ops: ops, Keys: universe}
}

func weighted(rng *rand.Rand, w []int) int {
	total := 0
	for _, x := range w {
		total += x
	}
	p := rng.Intn(total)
	for i, x := range w {
		if p < x {
			return i
		}
		p -= x
	}
	return len(w) - 1
}

// Entry is one key's modelled state.
type Entry struct {
	Val    []byte
	Expiry int64 // absolute ns, 0 = none
}

// Model is the shadow KV state: what the store must hold after a prefix
// of acknowledged operations.
type Model map[string]Entry

// Clone deep-copies the model (values are shared: the script never
// mutates a value in place).
func (m Model) Clone() Model {
	c := make(Model, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// visible reports whether e is readable at now.
func (e Entry) visible(now int64) bool {
	return e.Expiry == 0 || e.Expiry > now
}

// Apply folds op (executed at now) into the model, mirroring the
// store's semantics exactly.
func (m Model) Apply(op Op, now int64) {
	switch op.Kind {
	case OpSet:
		var exp int64
		if op.TTLms > 0 {
			exp = now + op.TTLms*1e6
		}
		m[op.Key] = Entry{Val: op.Val, Expiry: exp}
	case OpDel:
		delete(m, op.Key)
	case OpExpire:
		e, ok := m[op.Key]
		if !ok || !e.visible(now) {
			return
		}
		if op.TTLms <= 0 {
			delete(m, op.Key)
			return
		}
		e.Expiry = now + op.TTLms*1e6
		m[op.Key] = e
	}
}

// Replay drives script over conn (a live server connection), one
// operation at a time: before op i it calls setNow(NowAt(i)), and after
// op i's reply it calls acked(i) — the crash checker closes op i's flush
// window there. Every reply is verified against the rolling model, so
// the recording itself is an oracle run.
func Replay(conn net.Conn, script Script, setNow func(int64), acked func(i int)) error {
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 256<<10)
	model := make(Model)
	for i, op := range script.Ops {
		now := NowAt(i)
		if setNow != nil {
			setNow(now)
		}
		if err := writeOp(bw, op); err != nil {
			return fmt.Errorf("op %d (%s %s): %w", i, op.Kind, op.Key, err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("op %d: flush: %w", i, err)
		}
		rep, err := nvkv.ReadReply(br)
		if err != nil {
			return fmt.Errorf("op %d (%s %s): read reply: %w", i, op.Kind, op.Key, err)
		}
		if err := checkReply(model, op, now, rep); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		model.Apply(op, now)
		if acked != nil {
			acked(i)
		}
	}
	return nil
}

func writeOp(bw *bufio.Writer, op Op) error {
	key := []byte(op.Key)
	switch op.Kind {
	case OpGet:
		return nvkv.WriteCommand(bw, []byte("GET"), key)
	case OpSet:
		if op.TTLms > 0 {
			return nvkv.WriteCommand(bw, []byte("SET"), key, op.Val,
				[]byte("TTL"), []byte(strconv.FormatInt(op.TTLms, 10)))
		}
		return nvkv.WriteCommand(bw, []byte("SET"), key, op.Val)
	case OpDel:
		return nvkv.WriteCommand(bw, []byte("DEL"), key)
	case OpExpire:
		return nvkv.WriteCommand(bw, []byte("EXPIRE"), key,
			[]byte(strconv.FormatInt(op.TTLms, 10)))
	}
	return fmt.Errorf("bad op kind %d", op.Kind)
}

// checkReply verifies a live reply against the pre-op model state.
func checkReply(m Model, op Op, now int64, rep nvkv.Reply) error {
	if rep.Kind == nvkv.ReplyError {
		return fmt.Errorf("server error: %s", rep.Status)
	}
	switch op.Kind {
	case OpGet:
		e, ok := m[op.Key]
		if ok && e.visible(now) {
			if rep.Kind != nvkv.ReplyBulk || !bytes.Equal(rep.Bulk, e.Val) {
				return fmt.Errorf("GET %s: wrong value (kind %d, %d bytes)", op.Key, rep.Kind, len(rep.Bulk))
			}
		} else if rep.Kind != nvkv.ReplyNil {
			return fmt.Errorf("GET %s: expected nil, got kind %d", op.Key, rep.Kind)
		}
	case OpSet:
		if rep.Kind != nvkv.ReplyStatus {
			return fmt.Errorf("SET %s: expected +OK, got kind %d %q", op.Key, rep.Kind, rep.Status)
		}
	case OpDel:
		_, ok := m[op.Key]
		if want := b2i(ok); rep.Kind != nvkv.ReplyInt || rep.Int != want {
			return fmt.Errorf("DEL %s: expected :%d, got kind %d :%d", op.Key, want, rep.Kind, rep.Int)
		}
	case OpExpire:
		e, ok := m[op.Key]
		want := b2i(ok && e.visible(now))
		if rep.Kind != nvkv.ReplyInt || rep.Int != want {
			return fmt.Errorf("EXPIRE %s: expected :%d, got kind %d :%d", op.Key, want, rep.Kind, rep.Int)
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CheckRecovered sweeps the full key universe of a recovered store
// against the model at probeNow: every visible model key must return
// exactly its bytes, every other key must be absent. Keys in relax are
// skipped (the boundary's in-flight operation may have legally moved
// them; the caller checks their two admissible states itself).
func CheckRecovered(st *nvkv.Store, th alloc.Thread, m Model, universe []string, probeNow int64, relax map[string]bool) error {
	for _, key := range universe {
		if relax[key] {
			continue
		}
		e, ok := m[key]
		val, found, err := st.Get(th, probeNow, []byte(key))
		if err != nil {
			return fmt.Errorf("recovered GET %s: %v", key, err)
		}
		if ok && e.visible(probeNow) {
			if !found {
				return fmt.Errorf("acknowledged SET lost: %s absent after recovery", key)
			}
			if !bytes.Equal(val, e.Val) {
				return fmt.Errorf("acknowledged SET corrupted: %s has %d bytes, want %d", key, len(val), len(e.Val))
			}
		} else if found {
			return fmt.Errorf("deleted/expired key resurrected: %s present after recovery", key)
		}
	}
	return nil
}
