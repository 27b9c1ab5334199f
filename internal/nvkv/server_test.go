package nvkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
)

// newDirectHeap formats a heap on the direct device, the mode `nvkv
// serve` runs in.
func newDirectHeap(tb testing.TB) *core.Heap {
	tb.Helper()
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// serveOn serves a fresh store on h.
func serveOn(tb testing.TB, h alloc.Heap, cfg ServerConfig) *Server {
	tb.Helper()
	th := h.NewThread()
	store, err := CreateStore(h, th, 0, StoreConfig{Buckets: 128})
	if err != nil {
		tb.Fatal(err)
	}
	if f, ok := th.(alloc.Flusher); ok {
		f.Flush()
	}
	th.Close()
	return NewServer(store, cfg)
}

func newDirectServer(tb testing.TB) *Server {
	return serveOn(tb, newDirectHeap(tb), ServerConfig{})
}

// encode renders one command in array framing.
func encode(args ...string) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	WriteCommand(bw, bs...)
	bw.Flush()
	return buf.Bytes()
}

// loopConn is an in-memory connection that plays cmds in order, rounds
// times over, then reports EOF. A Read never crosses a command boundary,
// so the server sees an unpipelined client and flushes every reply.
// Replies are counted and dropped. Only Read, Write, Close and
// SetWriteDeadline are implemented; ServeConn calls nothing else.
type loopConn struct {
	net.Conn
	cmds   [][]byte
	rounds int
	i, off int
	wrote  int
}

func (c *loopConn) Read(p []byte) (int, error) {
	if c.rounds == 0 {
		return 0, io.EOF
	}
	cmd := c.cmds[c.i]
	n := copy(p, cmd[c.off:])
	c.off += n
	if c.off == len(cmd) {
		c.off = 0
		c.i++
		if c.i == len(c.cmds) {
			c.i = 0
			c.rounds--
		}
	}
	return n, nil
}

func (c *loopConn) Write(p []byte) (int, error) { c.wrote += len(p); return len(p), nil }
func (c *loopConn) Close() error                { return nil }

func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }

var valueSizes = []struct {
	name string
	n    int
}{{"64B", 64}, {"64KiB", 64 << 10}}

// TestServeConnZeroAllocs holds the request path to its contract: once a
// connection's buffers have grown to its traffic, serving GET, SET, DEL
// and EXPIRE allocates nothing on the Go heap. A connection's own set-up
// (thread, bufio pair, buffer growth) is cancelled by differencing two
// connections that differ only in how many commands they carry, which
// also resolves fractions of an allocation per command where
// AllocsPerRun over one command would truncate them to 0.
//
// That resolution shows one cost which is the allocator's, not the
// request path's: a 64 KiB record takes the extent path, whose
// bookkeeping log allocates the volatile descriptor of each new log
// chunk (blog.newChunk, three objects per chunk of entries) — about
// 0.02 per large malloc or free. Commands that allocate or free a large
// record are held under chunkAllocs instead of to zero.
func TestServeConnZeroAllocs(t *testing.T) {
	for _, size := range valueSizes {
		val := string(bytes.Repeat([]byte{'v'}, size.n))
		cycles := map[string][][]byte{
			"GET": {encode("GET", "k")},
			"SET": {encode("SET", "k", val)},
			// DEL and EXPIRE need a live key to act on, so each
			// round re-creates it.
			"DEL":    {encode("SET", "k", val), encode("DEL", "k")},
			"EXPIRE": {encode("SET", "k", val), encode("EXPIRE", "k", "60000")},
		}
		for name, cmds := range cycles {
			t.Run(name+"/"+size.name, func(t *testing.T) {
				srv := newDirectServer(t)
				srv.ServeConn(&loopConn{cmds: [][]byte{encode("SET", "k", val)}, rounds: 1})
				perConn := func(rounds int) float64 {
					return testing.AllocsPerRun(5, func() {
						c := &loopConn{cmds: cmds, rounds: rounds}
						srv.ServeConn(c)
						if c.wrote == 0 {
							t.Fatal("no reply written")
						}
					})
				}
				const extra = 500
				const chunkAllocs = 0.05
				var limit float64
				if name != "GET" && size.n > 16<<10 {
					limit = chunkAllocs
				}
				short, long := perConn(10), perConn(10+extra)
				if perCmd := (long - short) / float64(extra*len(cmds)); perCmd > limit {
					t.Fatalf("%.3f allocs per command, limit %.2f (%.0f per connection of 10 rounds, %.0f of %d)",
						perCmd, limit, short, long, 10+extra)
				}
			})
		}
	}
}

// pipeClient serves one end of a net.Pipe and returns the other with the
// channel that closes when ServeConn returns.
func pipeClient(srv *Server) (net.Conn, <-chan struct{}) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()
	return client, done
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func roundTrip(t *testing.T, br *bufio.Reader, bw *bufio.Writer, args ...string) Reply {
	t.Helper()
	bw.Write(encode(args...))
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReply(br)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServeConnHeaderOnlyClient: a client that announces a MaxBulk value
// and then stalls must cost the server one read step, not the announced
// size, and hanging up mid-frame must still end the connection.
func TestServeConnHeaderOnlyClient(t *testing.T) {
	srv := newDirectServer(t)
	client, done := pipeClient(srv)
	br, bw := bufio.NewReader(client), bufio.NewWriter(client)
	if rep := roundTrip(t, br, bw, "PING"); rep.Status != "PONG" {
		t.Fatalf("PING: %+v", rep)
	}
	before := liveHeap()
	header := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$" + strconv.Itoa(MaxBulk) + "\r\n"
	if _, err := client.Write([]byte(header)); err != nil {
		t.Fatal(err)
	}
	// A pipe write returns once the server has read it, and the server
	// sizes its buffer before it reads payload: when this byte is gone
	// the allocation under test has been made.
	if _, err := client.Write([]byte{'v'}); err != nil {
		t.Fatal(err)
	}
	if grown := int64(liveHeap()) - int64(before); grown > 256<<10 {
		t.Fatalf("server heap grew %d bytes on a %d-byte header", grown, len(header))
	}
	client.Close()
	<-done
	// The parser reports the same hang-up as a typed io error.
	_, err := ReadCommand(bufio.NewReader(bytes.NewReader([]byte(header + "v"))))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestServeConnLargeValueReleased: a value above retainBytes goes
// through one-off buffers on both the SET and the GET side; the next
// small command on the same connection still reads the right bytes and
// the connection no longer pins the large buffers.
func TestServeConnLargeValueReleased(t *testing.T) {
	srv := newDirectServer(t)
	client, done := pipeClient(srv)
	defer func() {
		client.Close()
		<-done
	}()
	br, bw := bufio.NewReader(client), bufio.NewWriter(client)
	big := make([]byte, 8*retainBytes)
	for i := range big {
		big[i] = byte(i * 7)
	}
	roundTrip(t, br, bw, "SET", "small", "tiny")
	before := liveHeap()
	if rep := roundTrip(t, br, bw, "SET", "big", string(big)); rep.Kind != ReplyStatus {
		t.Fatalf("SET big: %+v", rep)
	}
	if rep := roundTrip(t, br, bw, "GET", "big"); !bytes.Equal(rep.Bulk, big) {
		t.Fatalf("GET big: %d bytes, kind %d", len(rep.Bulk), rep.Kind)
	}
	if rep := roundTrip(t, br, bw, "GET", "small"); string(rep.Bulk) != "tiny" {
		t.Fatalf("GET small after big: %+v", rep)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(big) // live at both samples, so it cancels
	if grown > retainBytes {
		t.Fatalf("connection still holds %d bytes after a %d-byte value", grown, len(big))
	}
}

// BenchmarkServeConn drives one unpipelined connection through the whole
// request path (parse, dispatch, store, reply) from memory. Profile it
// with `go test -run '^$' -bench ServeConn -cpuprofile cpu.prof`.
func BenchmarkServeConn(b *testing.B) {
	for _, op := range []string{"get", "set"} {
		for _, size := range valueSizes {
			b.Run(fmt.Sprintf("%s/%s", op, size.name), func(b *testing.B) {
				srv := newDirectServer(b)
				set := encode("SET", "k", string(bytes.Repeat([]byte{'v'}, size.n)))
				srv.ServeConn(&loopConn{cmds: [][]byte{set}, rounds: 1})
				cmd := set
				if op == "get" {
					cmd = encode("GET", "k")
				}
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				b.ResetTimer()
				srv.ServeConn(&loopConn{cmds: [][]byte{cmd}, rounds: b.N})
			})
		}
	}
}

// reservingHeap hands out threads that keep the books on reservations —
// every Reserve must end in a Publish or an Unreserve — and, once
// noBuckets is set, refuse to reserve an index bucket, which is what a
// heap too full for another slab of that class does. It also counts the
// threads opened and closed, and calls onCopy when the whole device is
// read at once, which is Snapshot taking its copy.
type reservingHeap struct {
	alloc.Heap
	outstanding    atomic.Int64
	noBuckets      atomic.Bool
	opened, closed atomic.Int64
	onCopy         func()
}

func (h *reservingHeap) NewThread() alloc.Thread {
	h.opened.Add(1)
	return &reservingThread{Thread: h.Heap.NewThread(), h: h}
}

func (h *reservingHeap) Device() pmem.Dev { return copyHookDev{h.Heap.Device(), h} }

type copyHookDev struct {
	pmem.Dev
	h *reservingHeap
}

func (d copyHookDev) Bytes(addr pmem.PAddr, n int) []byte {
	if addr == 0 && uint64(n) == d.Size() && d.h.onCopy != nil {
		d.h.onCopy()
	}
	return d.Dev.Bytes(addr, n)
}

func (t *reservingThread) Close() {
	t.Thread.Close()
	t.h.closed.Add(1)
}

type reservingThread struct {
	alloc.Thread
	h *reservingHeap
}

func (t *reservingThread) Reserve(size uint64) (pmem.PAddr, error) {
	if size == phash.BucketBytes && t.h.noBuckets.Load() {
		return pmem.Null, alloc.ErrOutOfMemory
	}
	p, err := t.Thread.Reserve(size)
	if err == nil {
		t.h.outstanding.Add(1)
	}
	return p, err
}

func (t *reservingThread) Unreserve(addr pmem.PAddr) error {
	err := t.Thread.Unreserve(addr)
	if err == nil {
		t.h.outstanding.Add(-1)
	}
	return err
}

func (t *reservingThread) Publish(slot, new, old pmem.PAddr) error {
	err := t.Thread.Publish(slot, new, old)
	if err == nil && new != pmem.Null {
		t.h.outstanding.Add(-1)
	}
	return err
}

// liveBytes sums the heap's objects and fails unless they are exactly the
// blocks the store references.
func liveBytes(t *testing.T, when string, store *Store, ch *core.Heap) (bytes uint64) {
	t.Helper()
	refs := map[pmem.PAddr]bool{}
	store.References(func(a pmem.PAddr) { refs[a] = true })
	ch.Objects(func(o core.Object) bool {
		if !refs[o.Addr] {
			t.Fatalf("%s: %d-byte object at %#x is allocated and not referenced by the store", when, o.Size, o.Addr)
		}
		delete(refs, o.Addr)
		bytes += o.Size
		return true
	})
	if len(refs) != 0 {
		t.Fatalf("%s: the store references %d blocks that are not allocated", when, len(refs))
	}
	return bytes
}

// TestStoreFullHeap drives SET against a heap with no room left, through
// a connection. A SET the heap cannot hold is answered with the
// allocator's typed error, changes nothing — Used() reads what it read
// before the command, the heap's objects are still exactly what the store
// references, no reservation is left behind — and leaves the server
// serving. Deleting every key returns every record, and the heap holds as
// many keys again. The second half saturates a one-bucket directory and
// makes the ninth key's overflow bucket unobtainable: that SET fails after
// its record was reserved and written, and the record must go back.
func TestStoreFullHeap(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 12 << 20})
	opts := core.DefaultOptions(core.LOG)
	opts.Arenas = 2
	ch, err := core.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := &reservingHeap{Heap: ch}
	th := h.NewThread()
	store, err := CreateStore(h, th, 0, StoreConfig{Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	th.Close()
	// live is liveBytes, and fails on an outstanding reservation.
	live := func(when string) uint64 {
		t.Helper()
		if n := h.outstanding.Load(); n != 0 {
			t.Fatalf("%s: %d reservations neither published nor returned", when, n)
		}
		return liveBytes(t, when, store, ch)
	}
	baseline := live("empty store")

	srv := NewServer(store, ServerConfig{})
	client, done := pipeClient(srv)
	br, bw := bufio.NewReader(client), bufio.NewWriter(client)
	val := string(bytes.Repeat([]byte{'v'}, 3000))
	key := func(i int) string { return "key-" + strconv.Itoa(i) }
	refused := func(rep Reply) bool {
		t.Helper()
		if rep.Kind == ReplyStatus {
			return false
		}
		if rep.Kind != ReplyError || !strings.Contains(rep.Status, alloc.ErrOutOfMemory.Error()) {
			t.Fatalf("SET on a full heap: reply %+v, want an error naming %q", rep, alloc.ErrOutOfMemory)
		}
		return true
	}
	// set sends one SET and, if it is refused, checks that it moved nothing.
	set := func(k, v string) bool {
		t.Helper()
		used := ch.Used()
		if !refused(roundTrip(t, br, bw, "SET", k, v)) {
			return true
		}
		if got := ch.Used(); got != used {
			t.Fatalf("refused SET moved Used() from %d to %d", used, got)
		}
		return false
	}
	n := 0
	for set(key(n), val) {
		if n++; n > 1<<16 {
			t.Fatal("a 12 MiB heap never filled up")
		}
	}
	full := live("after the first refused SET")
	t.Logf("heap full after %d keys: %d live bytes, Used() %d", n, full, ch.Used())
	// The server keeps serving: reads, and more refusals, of new keys and
	// of replacements (whose old record stays until the publish).
	if rep := roundTrip(t, br, bw, "GET", key(0)); rep.Kind != ReplyBulk || string(rep.Bulk) != val {
		t.Fatalf("GET after a refused SET: %+v", rep)
	}
	for i := 0; i < 32; i++ {
		if set(key(n+1+i), val+val) || set(key(i), val+val) {
			t.Fatal("a 6000-byte SET was accepted by a heap that refused a 3000-byte one")
		}
	}
	live("after 64 more refused SETs")
	for i := 0; i < n; i++ {
		if rep := roundTrip(t, br, bw, "DEL", key(i)); rep.Kind != ReplyInt || rep.Int != 1 {
			t.Fatalf("DEL %d: %+v", i, rep)
		}
	}
	if store.Len() != 0 {
		t.Fatalf("%d keys left", store.Len())
	}
	// What is left is the index: header and directory as at the start, and
	// the overflow buckets the keys chained, which an index never unchains.
	drained := live("after deleting every key")
	if over := drained - baseline; over != uint64((n-1)/phash.Slots)*phash.BucketBytes {
		t.Fatalf("live bytes: %d empty, %d full, %d drained: not the empty store plus %d overflow buckets", baseline, full, drained, (n-1)/phash.Slots)
	}
	// Everything a refused SET reserved went back: the same keys fit again.
	for i := 0; i < n; i++ {
		if !set(key(i), val) {
			t.Fatalf("second fill refused at key %d of the %d the heap held before", i, n)
		}
	}
	client.Close()
	<-done

	// A saturated directory: the keys of one full chain, then one more
	// whose overflow bucket cannot be had.
	for i := 0; i < n; i++ {
		th := h.NewThread()
		if _, err := store.Del(th, []byte(key(i))); err != nil {
			t.Fatal(err)
		}
		th.Close()
	}
	th = h.NewThread()
	defer th.Close()
	slots := (1 + (n-1)/phash.Slots) * phash.Slots
	for i := 0; i < slots; i++ {
		if err := store.Set(th, 1, []byte(key(i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	h.noBuckets.Store(true)
	used, before := ch.Used(), live("chain full")
	if err := store.Set(th, 1, []byte(key(slots)), []byte("v"), 0); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("SET into a full chain with no bucket to be had: %v, want ErrOutOfMemory", err)
	}
	if after := live("after the bucketless SET"); after != before || ch.Used() != used {
		t.Fatalf("refused SET moved live bytes %d -> %d, Used() %d -> %d", before, after, used, ch.Used())
	}
	if err := store.Set(th, 1, []byte(key(0)), []byte("w"), 0); err != nil {
		t.Fatalf("replacement in a full chain: %v", err)
	}
}

// exchange writes batch, n encoded commands, to the server in one write —
// one pipeline — and reads their replies; an error reply is an error.
func exchange(conn net.Conn, br *bufio.Reader, batch []byte, n int) ([]Reply, error) {
	if _, err := conn.Write(batch); err != nil {
		return nil, err
	}
	reps := make([]Reply, n)
	for i := range reps {
		var err error
		if reps[i], err = ReadReply(br); err != nil {
			return nil, err
		}
		if reps[i].Kind == ReplyError {
			return nil, fmt.Errorf("reply %d of %d: %s", i, n, reps[i].Status)
		}
	}
	return reps, nil
}

// pipeline is exchange on the test's own goroutine.
func pipeline(t *testing.T, conn net.Conn, br *bufio.Reader, cmds ...[]byte) []Reply {
	t.Helper()
	reps, err := exchange(conn, br, bytes.Join(cmds, nil), len(cmds))
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestClockReadOncePerBatch: what is not per key is per batch. A pipeline
// of 32 writes reads the service clock once, the next batch reads it again
// — a TTL set in one batch runs out in a later batch whose clock is past
// it — and Ops has counted every command by the time its reply is read.
func TestClockReadOncePerBatch(t *testing.T) {
	var clock, reads atomic.Int64
	clock.Store(1000)
	srv := serveOn(t, newDirectHeap(t), ServerConfig{Now: func() int64 {
		reads.Add(1)
		return clock.Load()
	}})
	client, done := pipeClient(srv)
	defer func() {
		client.Close()
		<-done
	}()
	br := bufio.NewReader(client)

	cmds := [][]byte{encode("SET", "brief", "v", "TTL", "5")}
	for i := 1; i < 32; i++ {
		cmds = append(cmds, encode("SET", "k"+strconv.Itoa(i), "v"))
	}
	pipeline(t, client, br, cmds...)
	if n := reads.Load(); n != 1 {
		t.Fatalf("a 32-command pipeline read the clock %d times", n)
	}
	if rep := pipeline(t, client, br, encode("GET", "brief"))[0]; rep.Kind != ReplyBulk {
		t.Fatalf("GET before the TTL ran out: %+v", rep)
	}
	clock.Add(int64(5 * time.Millisecond))
	if rep := pipeline(t, client, br, encode("GET", "brief"), encode("GET", "k1"))[0]; rep.Kind != ReplyNil {
		t.Fatalf("GET in a batch whose clock is past the TTL: %+v", rep)
	}
	if n := reads.Load(); n != 3 {
		t.Fatalf("three batches read the clock %d times", n)
	}
	if n := srv.Ops(); n != 35 {
		t.Fatalf("Ops() = %d after 35 replies", n)
	}
}

// signalConn closes writing when the server first writes to it.
type signalConn struct {
	net.Conn
	once    sync.Once
	writing chan struct{}
}

func (c *signalConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(p)
}

// stallPeer serves a connection whose peer asks for a 128 KiB value and
// never reads it, and returns once the server is writing the reply.
func stallPeer(t *testing.T, srv *Server) (peer net.Conn, done <-chan struct{}) {
	t.Helper()
	th := srv.heap.NewThread()
	if err := srv.store.Set(th, 0, []byte("big"), make([]byte, 128<<10), 0); err != nil {
		t.Fatal(err)
	}
	th.Close()
	near, far := net.Pipe()
	stalled := &signalConn{Conn: far, writing: make(chan struct{})}
	d := make(chan struct{})
	go func() {
		srv.ServeConn(stalled)
		close(d)
	}()
	if _, err := near.Write(encode("GET", "big")); err != nil {
		t.Fatal(err)
	}
	<-stalled.writing
	return near, d
}

// TestSnapshotPassesAStalledPeer: a peer that does not read its reply
// holds nothing a snapshot needs. The reply was once written under the
// snapshot lock, and SNAPSHOT waited for as long as the peer pleased.
func TestSnapshotPassesAStalledPeer(t *testing.T) {
	srv := serveOn(t, newDirectHeap(t), ServerConfig{SnapshotPath: filepath.Join(t.TempDir(), "snap.img")})
	peer, done := stallPeer(t, srv)
	snap := make(chan error, 1)
	go func() { snap <- srv.Snapshot() }()
	select {
	case err := <-snap:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(batchWriteTimeout / 2):
		t.Fatal("Snapshot waits for a peer that does not read")
	}
	peer.Close()
	<-done
}

// TestSnapshotOfAStrictDeviceIsItsMedia: on a strict simulated device a
// restart reads the media image, so SNAPSHOT must save that and not the
// cache image: a store left unflushed after the acked SETs is absent from
// the file, and a fresh device loaded from it opens with every acked key.
func TestSnapshotOfAStrictDeviceIsItsMedia(t *testing.T) {
	const size = 64 << 20
	dev := pmem.New(pmem.Config{Size: size, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.img")
	srv := serveOn(t, h, ServerConfig{SnapshotPath: snapPath})
	client, done := pipeClient(srv)
	defer func() {
		client.Close()
		<-done
	}()
	br, bw := bufio.NewReader(client), bufio.NewWriter(client)
	acked := map[string]string{}
	for i := 0; i < 32; i++ {
		k, v := "k"+strconv.Itoa(i), strings.Repeat(strconv.Itoa(i), 1+i*40)
		if rep := roundTrip(t, br, bw, "SET", k, v); rep.Kind != ReplyStatus {
			t.Fatalf("SET %s: %+v", k, rep)
		}
		acked[k] = v
	}

	const marker = 0x5EED5EED5EED5EED
	last := pmem.PAddr(size - 8)
	dev.WriteU64(last, marker) // stored, never flushed
	if rep := roundTrip(t, br, bw, "SNAPSHOT"); rep.Kind != ReplyStatus {
		t.Fatalf("SNAPSHOT: %+v", rep)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(snap[last:]); got != 0 || dev.ReadU64(last) != marker {
		t.Fatalf("snapshot word %#x = %#x, cache image %#x: the unflushed store must be absent", last, got, dev.ReadU64(last))
	}
	mediaPath := filepath.Join(dir, "media.img")
	if err := dev.SaveImage(mediaPath); err != nil {
		t.Fatal(err)
	}
	media, err := os.ReadFile(mediaPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, media) {
		t.Fatal("the snapshot is not the device's media image")
	}

	fresh := pmem.New(pmem.Config{Size: size, Strict: true})
	if err := fresh.LoadImage(snapPath); err != nil {
		t.Fatal(err)
	}
	rh, _, err := core.Open(fresh, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatalf("snapshot does not open: %v", err)
	}
	st, err := OpenStore(rh, 0, StoreConfig{Buckets: 128})
	if err != nil {
		t.Fatalf("snapshot store does not open: %v", err)
	}
	th := rh.NewThread()
	defer th.Close()
	for k, v := range acked {
		got, ok, err := st.Get(th, 1, []byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("snapshot GET %s: %d bytes, found %v, err %v; acked %d bytes", k, len(got), ok, err, len(v))
		}
	}
	if st.Len() != int64(len(acked)) {
		t.Fatalf("snapshot holds %d keys, %d were acked", st.Len(), len(acked))
	}
}

// TestStalledPeerLosesItsConnection: the write deadline ends the
// connection of a peer that never reads, through the usual path — its
// allocator thread is closed — while a peer that reads its replies, 32
// commands deep, is served right through, for longer than the deadline.
func TestStalledPeerLosesItsConnection(t *testing.T) {
	h := &reservingHeap{Heap: newDirectHeap(t)}
	srv := serveOn(t, h, ServerConfig{})
	srv.writeTimeout = time.Second

	reader, readerDone := pipeClient(srv)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		br := bufio.NewReader(reader)
		var cmds []byte
		for i := 0; i < 16; i++ {
			cmds = append(cmds, encode("SET", "k"+strconv.Itoa(i), "v")...)
			cmds = append(cmds, encode("GET", "k"+strconv.Itoa(i))...)
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := exchange(reader, br, cmds, 32); err != nil {
				t.Errorf("the reading peer: %v", err)
				return
			}
		}
	}()

	peer, done := stallPeer(t, srv)
	defer peer.Close()
	closed := h.closed.Load()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a peer that never reads keeps its connection")
	}
	if got := h.closed.Load(); got != closed+1 {
		t.Fatalf("%d allocator threads closed with the stalled connection, want 1", got-closed)
	}
	close(stop)
	<-stopped
	reader.Close()
	<-readerDone
}

// TestSnapshotIsAConsistentCut: four connections pipeline SETs and DELs of
// records of every kind while snapshots are taken. Each image must recover
// like a crashed heap and hold a store whose every record passes its CRC
// and whose references are exactly the heap's objects — a cut between
// commands, on every connection at once. A connection accepted while the
// copy is being taken opens its allocator thread after it.
func TestSnapshotIsAConsistentCut(t *testing.T) {
	h := &reservingHeap{Heap: newDirectHeap(t)}
	snapPath := filepath.Join(t.TempDir(), "snap.img")
	srv := serveOn(t, h, ServerConfig{SnapshotPath: snapPath})

	const writers, keysPer, depth = 4, 48, 32
	key := func(w, k int) string { return fmt.Sprintf("w%d-k%d", w, k) }
	var universe []string
	for i := 0; i < writers*keysPer; i++ {
		universe = append(universe, key(i/keysPer, i%keysPer))
	}
	sizes := []int{16, 100, 700, 5000, 40 << 10}
	stop := make(chan struct{})
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		client, done := pipeClient(srv)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				client.Close()
				<-done
			}()
			br := bufio.NewReader(client)
			for n := 0; ; {
				select {
				case <-stop:
					return
				default:
				}
				var batch []byte
				for i := 0; i < depth; i, n = i+1, n+1 {
					if n%3 == 2 {
						batch = append(batch, encode("DEL", key(w, n%keysPer))...)
					} else {
						batch = append(batch, encode("SET", key(w, n%keysPer), string(make([]byte, sizes[n%len(sizes)])))...)
					}
				}
				if _, err := exchange(client, br, batch, depth); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				sent.Add(depth)
			}
		}(w)
	}

	var late net.Conn
	var lateDone <-chan struct{}
	h.onCopy = func() {
		opened := h.opened.Load()
		late, lateDone = pipeClient(srv)
		// Nothing announces a thread that was not opened: give a server
		// that would open it during the copy the time to.
		time.Sleep(50 * time.Millisecond)
		if got := h.opened.Load(); got != opened {
			t.Errorf("%d allocator threads opened while the snapshot's copy was being taken", got-opened)
		}
	}
	for i := 0; i < 6 && !t.Failed(); i++ {
		if err := srv.Snapshot(); err != nil {
			t.Fatal(err)
		}
		h.onCopy = nil
		checkSnapshot(t, snapPath, universe)
	}
	close(stop)
	wg.Wait()
	if rep := pipeline(t, late, bufio.NewReader(late), encode("PING"))[0]; rep.Status != "PONG" {
		t.Fatalf("the connection accepted during a snapshot: %+v", rep)
	}
	late.Close()
	<-lateDone
	if got, want := srv.Ops(), uint64(sent.Load())+1; got != want {
		t.Fatalf("Ops() = %d, %d commands were answered", got, want)
	}
}

// checkSnapshot opens the image at path the way a restart would and holds
// it to a consistent store: every key of the universe reads clean, the
// keys found are all the store's, and the heap's objects are exactly what
// the store references.
func checkSnapshot(t *testing.T, path string, universe []string) {
	t.Helper()
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	h, _, err := core.Open(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatalf("snapshot image does not open: %v", err)
	}
	st, err := OpenStore(h, 0, StoreConfig{Buckets: 128})
	if err != nil {
		t.Fatalf("snapshot store does not open: %v", err)
	}
	th := h.NewThread()
	defer th.Close()
	var live int64
	for _, key := range universe {
		_, ok, err := st.Get(th, 1, []byte(key))
		if err != nil {
			t.Fatalf("snapshot GET %s: %v", key, err)
		}
		if ok {
			live++
		}
	}
	if live != st.Len() {
		t.Fatalf("snapshot holds %d keys, %d of them the writers'", st.Len(), live)
	}
	liveBytes(t, "snapshot", st, h)
}
