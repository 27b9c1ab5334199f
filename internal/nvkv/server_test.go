package nvkv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
)

// newDirectServer serves a fresh store on the direct device, the mode
// `nvkv serve` runs in.
func newDirectServer(tb testing.TB) *Server {
	tb.Helper()
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		tb.Fatal(err)
	}
	th := h.NewThread()
	store, err := CreateStore(h, th, 0, StoreConfig{Buckets: 128})
	if err != nil {
		tb.Fatal(err)
	}
	if f, ok := th.(alloc.Flusher); ok {
		f.Flush()
	}
	th.Close()
	return NewServer(store, ServerConfig{})
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
// Replies are counted and dropped. Only Read, Write and Close are
// implemented; ServeConn calls nothing else.
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
// heap too full for another slab of that class does.
type reservingHeap struct {
	alloc.Heap
	outstanding atomic.Int64
	noBuckets   atomic.Bool
}

func (h *reservingHeap) NewThread() alloc.Thread {
	return &reservingThread{Thread: h.Heap.NewThread(), h: h}
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
	// live sums the heap's objects and fails unless they are exactly the
	// blocks the store references and no reservation is outstanding.
	live := func(when string) (bytes uint64) {
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
		if n := h.outstanding.Load(); n != 0 {
			t.Fatalf("%s: %d reservations neither published nor returned", when, n)
		}
		return bytes
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
