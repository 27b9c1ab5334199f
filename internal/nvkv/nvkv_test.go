package nvkv_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/experiment"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

// The crash-restart harness: record one deterministic traffic script
// against a virtual-time server with the flush journal on, sampling the
// journal watermark after every acknowledged operation; then reopen the
// device image at EVERY persistence boundary (plus a torn variant of
// each) and hold the recovered store to the acknowledged-durability
// contract. Because the replay is single-connection and serial, the
// watermark after op i is exact: boundaries in (marks[i], marks[i+1])
// have exactly op i+1 in flight, and no other key may move.

const (
	harnessDevBytes = 24 << 20
	harnessBuckets  = 256
	harnessRootSlot = 0
	tornSeed        = 0xDECAF
)

type recording struct {
	script    traffic.Script
	journal   []pmem.FlushDelta
	setupMark int
	marks     []int // journal watermark after op i was acknowledged
}

// startVirtualServer builds a fresh store on a strict, journaling
// simulated device and serves it over a net.Pipe.
func startVirtualServer(t *testing.T, clock *atomic.Int64) (*pmem.Device, net.Conn, func()) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: harnessDevBytes, Strict: true, Journal: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	store, err := nvkv.CreateStore(h, th, harnessRootSlot, nvkv.StoreConfig{Buckets: harnessBuckets})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := th.(alloc.Flusher); ok {
		f.Flush()
	}
	th.Close()
	srv := nvkv.NewServer(store, nvkv.ServerConfig{Now: clock.Load})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()
	return dev, client, func() {
		client.Close()
		<-done
	}
}

// record replays a generated script and returns the journal plus the
// per-op watermarks.
func record(t *testing.T, seed uint64, nOps, keys int) recording {
	t.Helper()
	var clock atomic.Int64
	dev, client, shutdown := startVirtualServer(t, &clock)
	setupMark := dev.JournalLen()

	script := traffic.GenScript(seed, nOps, keys)
	marks := make([]int, len(script.Ops))
	err := traffic.Replay(client, script,
		func(now int64) { clock.Store(now) },
		func(i int) { marks[i] = dev.JournalLen() })
	if err != nil {
		t.Fatalf("seed %d: replay: %v", seed, err)
	}
	shutdown()
	return recording{script: script, journal: dev.JournalSnapshot(), setupMark: setupMark, marks: marks}
}

// entryVisible mirrors the store's lazy-expiry read rule.
func entryVisible(e traffic.Entry, now int64) bool {
	return e.Expiry == 0 || e.Expiry > now
}

// applyEntry computes a single key's post-state for an op executed at
// now, given its pre-state (the per-key projection of Model.Apply).
func applyEntry(op traffic.Op, now int64, pre traffic.Entry, preOk bool) (traffic.Entry, bool) {
	switch op.Kind {
	case traffic.OpSet:
		var exp int64
		if op.TTLms > 0 {
			exp = now + op.TTLms*1e6
		}
		return traffic.Entry{Val: op.Val, Expiry: exp}, true
	case traffic.OpDel:
		return traffic.Entry{}, false
	case traffic.OpExpire:
		if !preOk || !entryVisible(pre, now) {
			return pre, preOk
		}
		if op.TTLms <= 0 {
			return traffic.Entry{}, false
		}
		return traffic.Entry{Val: pre.Val, Expiry: now + op.TTLms*1e6}, true
	}
	return pre, preOk // GET
}

// expectKey asserts one recovered key matches entry state (e, ok) at
// probeNow.
func expectKey(st *nvkv.Store, th alloc.Thread, key string, e traffic.Entry, ok bool, probeNow int64) error {
	val, found, err := st.Get(th, probeNow, []byte(key))
	if err != nil {
		return fmt.Errorf("GET %s: %v", key, err)
	}
	if ok && entryVisible(e, probeNow) {
		if !found {
			return fmt.Errorf("acknowledged SET lost: %s absent", key)
		}
		if !bytes.Equal(val, e.Val) {
			return fmt.Errorf("acknowledged SET corrupted: %s has %d bytes, want %d", key, len(val), len(e.Val))
		}
	} else if found {
		return fmt.Errorf("deleted/expired key resurrected: %s present", key)
	}
	return nil
}

// checkImage opens the heap+store in a materialized crash image and
// verifies the recovered state against the model after op i.
//
// At an exact acknowledgement boundary (k == marks[i], untorn) nothing
// is in flight and the full key universe must match the model. At an
// intermediate or torn boundary op i+1 is in flight: its key may read as
// either its pre- or its post-state, while a deterministic sample of
// other keys (plus periodic full sweeps) must match the model exactly.
func checkImage(scratch *pmem.Device, rec *recording, model traffic.Model, i, k int, torn bool) error {
	h, _, err := core.Open(scratch, core.DefaultOptions(core.LOG))
	if err != nil {
		return fmt.Errorf("core.Open: %v", err)
	}
	st, err := nvkv.OpenStore(h, harnessRootSlot, nvkv.StoreConfig{Buckets: harnessBuckets})
	if err != nil {
		return fmt.Errorf("OpenStore: %v", err)
	}
	th := h.NewThread()
	defer th.Close()
	probeNow := traffic.ProbeNow(len(rec.script.Ops))

	atAck := !torn && i >= 0 && k == rec.marks[i]
	var inflight *traffic.Op
	if !atAck && i+1 < len(rec.script.Ops) {
		inflight = &rec.script.Ops[i+1]
	}

	if atAck || k%64 == 0 {
		// Full-universe sweep, relaxing only the in-flight key.
		var relax map[string]bool
		if inflight != nil {
			relax = map[string]bool{inflight.Key: true}
		}
		if err := traffic.CheckRecovered(st, th, model, rec.script.Keys, probeNow, relax); err != nil {
			return err
		}
	} else {
		// Targeted: a deterministic sample of settled keys.
		uni := rec.script.Keys
		for j := 0; j < 8; j++ {
			key := uni[(k*13+j*37)%len(uni)]
			if inflight != nil && key == inflight.Key {
				continue
			}
			e, ok := model[key]
			if err := expectKey(st, th, key, e, ok, probeNow); err != nil {
				return err
			}
		}
	}

	// Allocated == reachable: whichever state the op in flight recovered
	// to, the heap holds the index's blocks and the records it references
	// and nothing else. A record a crash left allocated but unbound, or
	// bound but free, fails here at the boundary that did it.
	reachable := map[pmem.PAddr]bool{}
	st.References(func(a pmem.PAddr) { reachable[a] = true })
	var stray error
	h.Objects(func(o core.Object) bool {
		if !reachable[o.Addr] {
			stray = fmt.Errorf("leak: %d-byte object at %#x is allocated and unreachable from the index", o.Size, o.Addr)
			return false
		}
		delete(reachable, o.Addr)
		return true
	})
	if stray != nil {
		return stray
	}
	for a := range reachable {
		return fmt.Errorf("dangling: the index references %#x, which is not an allocated object", a)
	}

	if inflight != nil {
		// The in-flight op's key must be in its pre- or post-state —
		// nothing in between, nothing else.
		pre, preOk := model[inflight.Key]
		post, postOk := applyEntry(*inflight, traffic.NowAt(i+1), pre, preOk)
		errPre := expectKey(st, th, inflight.Key, pre, preOk, probeNow)
		errPost := expectKey(st, th, inflight.Key, post, postOk, probeNow)
		if errPre != nil && errPost != nil {
			return fmt.Errorf("in-flight %s %s in neither admissible state: pre: %v / post: %v",
				inflight.Kind, inflight.Key, errPre, errPost)
		}
	}
	return nil
}

// verify enumerates every persistence boundary of a recording — and a
// torn variant of each — on the experiment worker pool.
func verify(t *testing.T, rec recording) (boundaries int) {
	t.Helper()
	end := len(rec.journal) // boundaries rec.setupMark..end inclusive

	// Boundaries inside heap/store creation precede any service
	// acknowledgement; sample them for panic-free typed-error (or
	// successful) opens.
	{
		cur := pmem.NewImageCursor(harnessDevBytes, rec.journal)
		scratch := pmem.New(pmem.Config{Size: harnessDevBytes})
		for k := 0; k < rec.setupMark; k += 97 {
			cur.Advance(k)
			cur.MaterializeInto(scratch)
			if h, _, err := core.Open(scratch, core.DefaultOptions(core.LOG)); err == nil {
				// A successfully opened partial heap must still refuse
				// or survive a store open without panicking.
				_, _ = nvkv.OpenStore(h, harnessRootSlot, nvkv.StoreConfig{Buckets: harnessBuckets})
			}
			boundaries++
		}
	}

	const workers = 4
	total := end - rec.setupMark + 1
	errs := make([]error, workers)
	counts := make([]int, workers)
	experiment.Config{Workers: workers}.RunCells(workers, func(w int) {
		lo := rec.setupMark + total*w/workers
		hi := rec.setupMark + total*(w+1)/workers // exclusive
		cur := pmem.NewImageCursor(harnessDevBytes, rec.journal)
		scratch := pmem.New(pmem.Config{Size: harnessDevBytes})
		model := make(traffic.Model)
		i := -1 // last op with marks[i] <= current boundary
		for i+1 < len(rec.marks) && rec.marks[i+1] <= lo {
			i++
			model.Apply(rec.script.Ops[i], traffic.NowAt(i))
		}
		for k := lo; k < hi; k++ {
			cur.Advance(k)
			for i+1 < len(rec.marks) && rec.marks[i+1] <= k {
				i++
				model.Apply(rec.script.Ops[i], traffic.NowAt(i))
			}
			if k%64 == 0 {
				cur.MaterializeInto(scratch)
				if probs := core.Check(scratch, core.DefaultOptions(core.LOG)); len(probs) > 0 {
					errs[w] = fmt.Errorf("boundary %d: core.Check: %v", k, probs[0])
					return
				}
			}
			cur.MaterializeInto(scratch)
			if err := checkImage(scratch, &rec, model, i, k, false); err != nil {
				errs[w] = fmt.Errorf("boundary %d: %v", k, err)
				return
			}
			counts[w]++
			if cur.MaterializeTornInto(scratch, tornSeed) {
				if err := checkImage(scratch, &rec, model, i, k, true); err != nil {
					errs[w] = fmt.Errorf("boundary %d (torn): %v", k, err)
					return
				}
				counts[w]++
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range counts {
		boundaries += c
	}
	return boundaries
}

// TestCrashRestartBoundaries is the service-level crash-consistency
// proof: across three seeds, every acknowledged SET survives and every
// acknowledged DEL stays deleted at every enumerated cut point.
func TestCrashRestartBoundaries(t *testing.T) {
	nOps := 260
	if testing.Short() {
		nOps = 90
	}
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rec := record(t, seed, nOps, 96)
			if !sort.IntsAreSorted(rec.marks) {
				t.Fatal("journal watermarks are not monotone")
			}
			n := verify(t, rec)
			t.Logf("seed %d: %d ops, %d journal deltas, %d boundary images verified",
				seed, nOps, len(rec.journal), n)
		})
	}
}

// TestReplayAgainstModel runs a longer script live (no crashes) and
// relies on Replay's built-in reply verification, then reopens the final
// image cold and sweeps it.
func TestReplayAgainstModel(t *testing.T) {
	var clock atomic.Int64
	dev, client, shutdown := startVirtualServer(t, &clock)
	script := traffic.GenScript(7, 1500, 128)
	model := make(traffic.Model)
	err := traffic.Replay(client, script,
		func(now int64) { clock.Store(now) },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range script.Ops {
		model.Apply(op, traffic.NowAt(i))
	}
	shutdown()

	// Cold restart on the final persisted image (a power cut right
	// after the last acknowledged flush).
	journal := dev.JournalSnapshot()
	cur := pmem.NewImageCursor(harnessDevBytes, journal)
	cur.Advance(len(journal))
	dev2 := pmem.New(pmem.Config{Size: harnessDevBytes})
	cur.MaterializeInto(dev2)
	h, _, err := core.Open(dev2, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	st, err := nvkv.OpenStore(h, harnessRootSlot, nvkv.StoreConfig{Buckets: harnessBuckets})
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	if err := traffic.CheckRecovered(st, th, model, script.Keys, traffic.ProbeNow(len(script.Ops)), nil); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Len(), int64(countVisible(model, traffic.ProbeNow(len(script.Ops)))); got < want {
		t.Fatalf("recovered store Len %d < %d visible model keys", got, want)
	}
}

func countVisible(m traffic.Model, now int64) int {
	n := 0
	for _, e := range m {
		if entryVisible(e, now) {
			n++
		}
	}
	return n
}

// TestServeBasic covers the command surface over a pipe: TTL expiry
// under an injected clock, reply shapes, stats, unknown commands, and
// pipelined batches.
func TestServeBasic(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1)
	_, client, shutdown := startVirtualServer(t, &clock)
	defer shutdown()
	br := bufio.NewReader(client)
	bw := bufio.NewWriter(client)

	do := func(args ...string) nvkv.Reply { return doCmd(t, br, bw, args...) }

	if rep := do("PING"); rep.Kind != nvkv.ReplyStatus || rep.Status != "PONG" {
		t.Fatalf("PING: %+v", rep)
	}
	if rep := do("GET", "nope"); rep.Kind != nvkv.ReplyNil {
		t.Fatalf("GET absent: %+v", rep)
	}
	if rep := do("SET", "a", "hello"); rep.Kind != nvkv.ReplyStatus || rep.Status != "OK" {
		t.Fatalf("SET: %+v", rep)
	}
	if rep := do("GET", "a"); rep.Kind != nvkv.ReplyBulk || string(rep.Bulk) != "hello" {
		t.Fatalf("GET: %+v", rep)
	}
	if rep := do("DEL", "a"); rep.Kind != nvkv.ReplyInt || rep.Int != 1 {
		t.Fatalf("DEL: %+v", rep)
	}
	if rep := do("DEL", "a"); rep.Kind != nvkv.ReplyInt || rep.Int != 0 {
		t.Fatalf("DEL absent: %+v", rep)
	}

	// TTL: set at t=1ns with 5 ms TTL; visible until the clock passes
	// 1 + 5e6 ns.
	if rep := do("SET", "b", "v", "TTL", "5"); rep.Kind != nvkv.ReplyStatus {
		t.Fatalf("SET TTL: %+v", rep)
	}
	if rep := do("GET", "b"); rep.Kind != nvkv.ReplyBulk {
		t.Fatalf("GET before expiry: %+v", rep)
	}
	clock.Store(1 + 5e6 + 1)
	if rep := do("GET", "b"); rep.Kind != nvkv.ReplyNil {
		t.Fatalf("GET after expiry: %+v", rep)
	}
	// EXPIRE on the expired key reports 0; re-set then expire-now.
	if rep := do("EXPIRE", "b", "100"); rep.Kind != nvkv.ReplyInt || rep.Int != 0 {
		t.Fatalf("EXPIRE expired: %+v", rep)
	}
	if rep := do("SET", "b", "v2"); rep.Kind != nvkv.ReplyStatus {
		t.Fatalf("re-SET: %+v", rep)
	}
	if rep := do("EXPIRE", "b", "0"); rep.Kind != nvkv.ReplyInt || rep.Int != 1 {
		t.Fatalf("EXPIRE 0: %+v", rep)
	}
	if rep := do("GET", "b"); rep.Kind != nvkv.ReplyNil {
		t.Fatalf("GET after EXPIRE 0: %+v", rep)
	}

	if rep := do("STATS"); rep.Kind != nvkv.ReplyBulk || !bytes.Contains(rep.Bulk, []byte("lease_overhead_bytes:")) {
		t.Fatalf("STATS: %+v", rep)
	}
	if rep := do("NOSUCH"); rep.Kind != nvkv.ReplyError {
		t.Fatalf("unknown command: %+v", rep)
	}
	if rep := do("SET", "onlykey"); rep.Kind != nvkv.ReplyError {
		t.Fatalf("bad arity: %+v", rep)
	}

	// Pipelined batch: all commands written before any reply is read.
	for i := 0; i < 10; i++ {
		if err := nvkv.WriteCommand(bw, []byte("SET"), []byte(fmt.Sprintf("p%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rep, err := nvkv.ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != nvkv.ReplyStatus {
			t.Fatalf("pipelined SET %d: %+v", i, rep)
		}
	}

	if rep := do("QUIT"); rep.Kind != nvkv.ReplyStatus {
		t.Fatalf("QUIT: %+v", rep)
	}
}

// doCmd writes one command and reads its reply (shared test client).
func doCmd(t *testing.T, br *bufio.Reader, bw *bufio.Writer, args ...string) nvkv.Reply {
	t.Helper()
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	if err := nvkv.WriteCommand(bw, bs...); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := nvkv.ReadReply(br)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTTLOverflow holds the TTL paths to their bounds: a millisecond
// count whose ns conversion would overflow int64 is rejected, the
// largest representable TTL clamps to "never expires" instead of
// wrapping into the past, and a huge negative EXPIRE deletes rather
// than wrapping positive.
func TestTTLOverflow(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1)
	_, client, shutdown := startVirtualServer(t, &clock)
	defer shutdown()
	br := bufio.NewReader(client)
	bw := bufio.NewWriter(client)
	do := func(args ...string) nvkv.Reply { return doCmd(t, br, bw, args...) }

	// math.MaxInt64/1e6 = 9223372036854: the largest ms that converts.
	if rep := do("SET", "k", "v", "TTL", "9223372036855"); rep.Kind != nvkv.ReplyError {
		t.Fatalf("SET over-limit TTL accepted: %+v", rep)
	}
	if rep := do("SET", "k", "v", "TTL", "9223372036854775807"); rep.Kind != nvkv.ReplyError {
		t.Fatalf("SET MaxInt64 TTL accepted: %+v", rep)
	}
	// The largest accepted TTL: now+ttl saturates, the key never expires.
	if rep := do("SET", "k", "v", "TTL", "9223372036854"); rep.Kind != nvkv.ReplyStatus {
		t.Fatalf("SET max TTL: %+v", rep)
	}
	clock.Store(1 << 62)
	if rep := do("GET", "k"); rep.Kind != nvkv.ReplyBulk || string(rep.Bulk) != "v" {
		t.Fatalf("max-TTL key expired or lost: %+v", rep)
	}
	// EXPIRE with an overflowing positive ms is rejected, key untouched.
	if rep := do("EXPIRE", "k", "9223372036854775807"); rep.Kind != nvkv.ReplyError {
		t.Fatalf("EXPIRE MaxInt64 accepted: %+v", rep)
	}
	if rep := do("GET", "k"); rep.Kind != nvkv.ReplyBulk {
		t.Fatalf("key lost after rejected EXPIRE: %+v", rep)
	}
	// EXPIRE re-arm to the maximum still survives any clock.
	if rep := do("EXPIRE", "k", "9223372036854"); rep.Kind != nvkv.ReplyInt || rep.Int != 1 {
		t.Fatalf("EXPIRE max TTL: %+v", rep)
	}
	if rep := do("GET", "k"); rep.Kind != nvkv.ReplyBulk {
		t.Fatalf("max-TTL re-armed key expired: %+v", rep)
	}
	// A hugely negative ms is a delete, not a wrapped-positive TTL.
	if rep := do("EXPIRE", "k", "-9223372036854775808"); rep.Kind != nvkv.ReplyInt || rep.Int != 1 {
		t.Fatalf("EXPIRE MinInt64: %+v", rep)
	}
	if rep := do("GET", "k"); rep.Kind != nvkv.ReplyNil {
		t.Fatalf("key survived MinInt64 EXPIRE: %+v", rep)
	}
}

// TestSnapshotConcurrentDirect hammers SETs from several connections
// while another connection takes snapshots of a direct (mmap-style)
// device. Under -race this is the proof that the snapshot copy is
// quiesced, not a torn read of live memory; afterwards the last
// snapshot must open as a valid heap+store image.
func TestSnapshotConcurrentDirect(t *testing.T) {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	store, err := nvkv.CreateStore(h, th, harnessRootSlot, nvkv.StoreConfig{Buckets: harnessBuckets})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := th.(alloc.Flusher); ok {
		f.Flush()
	}
	th.Close()
	snapPath := filepath.Join(t.TempDir(), "snap.img")
	srv := nvkv.NewServer(store, nvkv.ServerConfig{SnapshotPath: snapPath})

	const writers = 4
	var wg sync.WaitGroup
	connect := func() (*bufio.Reader, *bufio.Writer, net.Conn) {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		return bufio.NewReader(client), bufio.NewWriter(client), client
	}
	for w := 0; w < writers; w++ {
		br, bw, client := connect()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer client.Close()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%32)
				if err := nvkv.WriteCommand(bw, []byte("SET"), []byte(key), []byte("value")); err != nil {
					t.Error(err)
					return
				}
				if err := bw.Flush(); err != nil {
					t.Error(err)
					return
				}
				rep, err := nvkv.ReadReply(br)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Kind != nvkv.ReplyStatus {
					t.Errorf("writer %d SET %d: %+v", w, i, rep)
					return
				}
			}
		}(w)
	}
	br, bw, client := connect()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer client.Close()
		for i := 0; i < 8; i++ {
			if err := nvkv.WriteCommand(bw, []byte("SNAPSHOT")); err != nil {
				t.Error(err)
				return
			}
			if err := bw.Flush(); err != nil {
				t.Error(err)
				return
			}
			rep, err := nvkv.ReadReply(br)
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Kind != nvkv.ReplyStatus {
				t.Errorf("SNAPSHOT %d: %+v", i, rep)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// The final snapshot (taken with writers mid-flight) must be a
	// loadable image whose readable keys are uncorrupted.
	dev2, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20, Path: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	h2, _, err := core.Open(dev2, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatalf("snapshot image does not open: %v", err)
	}
	st2, err := nvkv.OpenStore(h2, harnessRootSlot, nvkv.StoreConfig{Buckets: harnessBuckets})
	if err != nil {
		t.Fatalf("snapshot store does not open: %v", err)
	}
	th2 := h2.NewThread()
	defer th2.Close()
	for w := 0; w < writers; w++ {
		for k := 0; k < 32; k++ {
			key := []byte(fmt.Sprintf("w%d-k%d", w, k))
			val, ok, err := st2.Get(th2, 1, key)
			if err != nil {
				t.Fatalf("snapshot GET %s: %v", key, err)
			}
			if ok && !bytes.Equal(val, []byte("value")) {
				t.Fatalf("snapshot GET %s: corrupt value %q", key, val)
			}
		}
	}
}
