package nvkv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
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
