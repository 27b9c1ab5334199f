package nvkv_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

// startVirtualServer builds a fresh store on a strict simulated device
// and serves it over a net.Pipe.
func startVirtualServer(t *testing.T, clock *atomic.Int64) (*pmem.Device, net.Conn, func()) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 24 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	store, err := nvkv.CreateStore(h, th, 0, nvkv.StoreConfig{Buckets: 256})
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

// TestReplayAgainstModel runs a longer script live (no crashes) and
// relies on Replay's built-in reply verification, then cuts power after
// the session's last flush and sweeps the reopened store.
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

	// Cold restart on the persisted image alone.
	dev.Crash()
	h, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	st, err := nvkv.OpenStore(h, 0, nvkv.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	probeNow := traffic.ProbeNow(len(script.Ops))
	if err := traffic.CheckRecovered(st, th, model, script.Keys, probeNow, nil); err != nil {
		t.Fatal(err)
	}
	// The sweep above passed, so the keys GET finds are the model's
	// visible ones; Len may also count expired keys not yet reclaimed.
	visible := 0
	for _, key := range script.Keys {
		if _, ok, _ := st.Get(th, probeNow, []byte(key)); ok {
			visible++
		}
	}
	if got := st.Len(); got < int64(visible) {
		t.Fatalf("recovered store Len %d < %d visible model keys", got, visible)
	}
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
	store, err := nvkv.CreateStore(h, th, 0, nvkv.StoreConfig{Buckets: 256})
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
	st2, err := nvkv.OpenStore(h2, 0, nvkv.StoreConfig{})
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
