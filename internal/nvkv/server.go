package nvkv

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// Server serves the RESP-like protocol over TCP (or any net.Listener —
// the deterministic tests drive it over net.Pipe). Every connection gets
// its own allocator Thread, so connections allocate through their own
// tcache and contend only where the allocator itself contends.
//
// Commands:
//
//	PING                       -> +PONG
//	GET key                    -> bulk value | $-1
//	SET key value [TTL ms]     -> +OK         (durable on reply)
//	DEL key                    -> :1 | :0     (durable on reply)
//	EXPIRE key ms              -> :1 | :0     (ms <= 0 deletes)
//	STATS                      -> bulk text (store counters + heap accounting)
//	SNAPSHOT                   -> +saved <path> (configured path only)
//	QUIT                       -> +OK, connection closes
type Server struct {
	store *Store
	heap  alloc.Heap

	// Now supplies the service clock in ns. The default is wall time;
	// the virtual-time harness injects a logical clock so expiry is
	// deterministic.
	now func() int64

	// snapshotPath, when non-empty, enables the SNAPSHOT command.
	snapshotPath string

	// writeTimeout is batchWriteTimeout, unless a test has shortened it.
	writeTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	// sessions holds every connection being served. A connection takes
	// its own gate — a mutex no other connection touches — around each
	// call that can write the device (a store operation, thread open and
	// close, a deferred-free drain) and around nothing that waits for its
	// peer. Snapshot holds gateMu, so that none joins or leaves, and every
	// gate while the image copy is taken: the copy is a consistent
	// point-in-time cut, not a torn read of live memory.
	gateMu   sync.Mutex
	sessions map[*session]struct{}

	ops atomic.Uint64
}

// session is what one connection's goroutine owns.
type session struct {
	gate sync.Mutex
	th   alloc.Thread
	bw   *bufio.Writer
	// val is the GET scratch; now the service clock, read once per batch.
	val []byte
	now int64
}

// drain empties the thread's deferred buffers (batched remote frees).
func (c *session) drain() {
	c.gate.Lock()
	if f, ok := c.th.(alloc.Flusher); ok {
		f.Flush()
	}
	c.gate.Unlock()
}

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Now overrides the service clock (default time.Now().UnixNano).
	Now func() int64
	// SnapshotPath enables SNAPSHOT, writing the heap image there.
	SnapshotPath string
}

// NewServer wraps a store for serving.
func NewServer(store *Store, cfg ServerConfig) *Server {
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &Server{
		store:        store,
		heap:         store.Heap(),
		now:          now,
		snapshotPath: cfg.SnapshotPath,
		writeTimeout: batchWriteTimeout,
		conns:        make(map[net.Conn]struct{}),
		sessions:     make(map[*session]struct{}),
	}
}

// Ops returns the total commands served, counted when a batch's replies
// are flushed.
func (s *Server) Ops() uint64 { return s.ops.Load() }

// Serve accepts connections until the listener is closed (Close does
// that). It always returns a non-nil error; after Close it returns
// net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.track(conn, true)
		go func() {
			defer s.track(conn, false)
			s.ServeConn(conn)
		}()
	}
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed {
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// maxTTLms is the largest TTL (in ms) the protocol accepts: anything
// bigger would overflow the ns conversion (ms * time.Millisecond) and
// silently flip the expiry semantics. ~292 years is not a real TTL.
const maxTTLms = math.MaxInt64 / int64(time.Millisecond)

// flushEvery bounds how many commands a connection serves between
// explicit drains of the thread's deferred buffers (batched remote
// frees). Acknowledged mutations are durable regardless — the drain only
// bounds how much reclaimable storage a crash can leak. It also bounds a
// batch, and with it how stale the batch's clock can be.
const flushEvery = 4096

// batchWriteTimeout bounds the socket writes of one batch. A peer that does
// not read its replies for this long, or takes this long to finish sending
// a command it began mid-batch, loses its connection.
const batchWriteTimeout = 30 * time.Second

// ServeConn serves one connection synchronously and closes it on
// return. Exposed so tests can serve a net.Pipe end without a listener.
//
// The unit of everything that is not per key is the batch: the commands
// served between two reply flushes, which is a client's pipeline as far
// as it has arrived. The clock is read, the write deadline set and
// Server.ops added to once per batch.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	c := &session{bw: bufio.NewWriterSize(conn, 64<<10)}
	// Joining waits out a snapshot in progress, so the thread is opened
	// after its copy is taken.
	s.gateMu.Lock()
	s.sessions[c] = struct{}{}
	s.gateMu.Unlock()
	c.gate.Lock()
	c.th = s.heap.NewThread()
	c.gate.Unlock()
	// served counts the commands dispatched, flushed those of them whose
	// batch has ended.
	served, flushed := 0, 0
	defer func() {
		s.ops.Add(uint64(served - flushed))
		c.gate.Lock()
		c.th.Close()
		c.gate.Unlock()
		s.gateMu.Lock()
		delete(s.sessions, c)
		s.gateMu.Unlock()
	}()
	// The connection owns both request-path buffers: cr's command
	// buffer, which the arguments of the current command alias until the
	// next one is read, and c.val, the GET scratch. dispatch has finished
	// with both (bw has copied or written the reply) before either is
	// reused.
	cr := commandReader{br: bufio.NewReaderSize(conn, 64<<10)}
	for {
		args, err := cr.next()
		if served == flushed {
			c.now = s.now()
			// A failure to set it is the connection's, and the next
			// write reports it.
			_ = conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				writeErrorReply(c.bw, err.Error())
				c.bw.Flush()
			}
			return
		}
		quit := s.dispatch(c, args)
		if cap(c.val) > retainBytes {
			c.val = nil
		}
		served++
		drain := served%flushEvery == 0
		if drain {
			c.drain()
		}
		// Pipelining: only pay the write syscall when no further
		// command is already buffered.
		if cr.br.Buffered() == 0 || quit || drain {
			s.ops.Add(uint64(served - flushed))
			flushed = served
			if err := c.bw.Flush(); err != nil {
				return
			}
		}
		if quit {
			return
		}
	}
}

// commandIs reports whether name is cmd (upper-case ASCII) in any case.
func commandIs(name []byte, cmd string) bool {
	if len(name) != len(cmd) {
		return false
	}
	for i, c := range name {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != cmd[i] {
			return false
		}
	}
	return true
}

// dispatch executes one command and writes its reply. A GET's value
// goes through c.val, the connection's scratch, reusing its capacity: the
// copy out of the heap happens inside the store, under the key's index
// stripe, and the write to bw after stripe and gate are released, so a
// slow peer holds up no key and no snapshot. dispatch reports whether the
// connection should close (QUIT).
func (s *Server) dispatch(c *session, args [][]byte) bool {
	bw, name := c.bw, args[0]
	switch {
	case commandIs(name, "PING"):
		writeStatus(bw, "PONG")
	case commandIs(name, "GET"):
		if len(args) != 2 {
			writeErrorReply(bw, "GET needs 1 argument")
			return false
		}
		c.gate.Lock()
		v, ok, err := s.store.AppendGet(c.th, c.now, c.val[:0], args[1])
		c.gate.Unlock()
		c.val = v
		switch {
		case err != nil:
			writeErrorReply(bw, err.Error())
		case !ok:
			writeNil(bw)
		default:
			writeBulk(bw, v)
		}
	case commandIs(name, "SET"):
		if len(args) != 3 && len(args) != 5 {
			writeErrorReply(bw, "SET needs key value [TTL ms]")
			return false
		}
		var ttl int64
		if len(args) == 5 {
			if !commandIs(args[3], "TTL") {
				writeErrorReply(bw, "SET option must be TTL")
				return false
			}
			ms, err := strconv.ParseInt(string(args[4]), 10, 64)
			if err != nil || ms < 0 || ms > maxTTLms {
				writeErrorReply(bw, "bad TTL")
				return false
			}
			ttl = ms * int64(time.Millisecond)
		}
		c.gate.Lock()
		err := s.store.Set(c.th, c.now, args[1], args[2], ttl)
		c.gate.Unlock()
		if err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeStatus(bw, "OK")
	case commandIs(name, "DEL"):
		if len(args) != 2 {
			writeErrorReply(bw, "DEL needs 1 argument")
			return false
		}
		c.gate.Lock()
		ok, err := s.store.Del(c.th, args[1])
		c.gate.Unlock()
		if err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeInt(bw, b2i(ok))
	case commandIs(name, "EXPIRE"):
		if len(args) != 3 {
			writeErrorReply(bw, "EXPIRE needs key and ms")
			return false
		}
		ms, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil || ms > maxTTLms {
			writeErrorReply(bw, "bad TTL")
			return false
		}
		// ms <= 0 means delete; pass it through unconverted so a huge
		// negative ms cannot overflow the multiply either.
		ttl := ms
		if ms > 0 {
			ttl = ms * int64(time.Millisecond)
		}
		c.gate.Lock()
		ok, err := s.store.Expire(c.th, c.now, args[1], ttl)
		c.gate.Unlock()
		if err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeInt(bw, b2i(ok))
	case commandIs(name, "STATS"):
		c.drain()
		writeBulk(bw, []byte(s.store.StatsText()))
	case commandIs(name, "SNAPSHOT"):
		c.drain()
		if err := s.Snapshot(); err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeStatus(bw, "saved "+s.snapshotPath)
	case commandIs(name, "QUIT"):
		writeStatus(bw, "OK")
		return true
	default:
		writeErrorReply(bw, fmt.Sprintf("unknown command %q", name))
	}
	return false
}

// quiesce stops every connection at its gate and keeps others from
// joining or leaving, until resume.
func (s *Server) quiesce() {
	s.gateMu.Lock()
	for c := range s.sessions {
		c.gate.Lock()
	}
}

func (s *Server) resume() {
	for c := range s.sessions {
		c.gate.Unlock()
	}
	s.gateMu.Unlock()
}

// Snapshot writes a point-in-time copy of the heap image to the
// configured path. Mutations are quiesced only while the bytes a restart
// reads are copied (pmem.Image), so the snapshot is a consistent cut; the
// copy is written after serving resumes, atomically (pmem.WriteImage), so
// a host crash mid-save never leaves a torn snapshot. `nvstat -check` (or
// -repair) still validates a snapshot before it is trusted, guarding
// against media-level corruption.
func (s *Server) Snapshot() error {
	if s.snapshotPath == "" {
		return errors.New("nvkv: snapshots disabled (no snapshot path configured)")
	}
	s.quiesce()
	img := pmem.Image(s.heap.Device())
	s.resume()
	return pmem.WriteImage(s.snapshotPath, img)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
