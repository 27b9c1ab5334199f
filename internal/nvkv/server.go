package nvkv

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
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

	// snapMu quiesces heap mutation for SNAPSHOT: every server-side
	// path that can write the device (command execution, thread
	// open/close, deferred-free drains) holds it for read; Snapshot
	// holds it for write while the image copy is taken, so the copy is
	// a consistent point-in-time cut, not a torn read of live memory.
	snapMu sync.RWMutex

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	ops atomic.Uint64
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
		conns:        make(map[net.Conn]struct{}),
	}
}

// Ops returns the total commands served.
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
// bounds how much reclaimable storage a crash can leak.
const flushEvery = 4096

// ServeConn serves one connection synchronously and closes it on
// return. Exposed so tests can serve a net.Pipe end without a listener.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	s.snapMu.RLock()
	th := s.heap.NewThread()
	s.snapMu.RUnlock()
	defer func() {
		s.snapMu.RLock()
		th.Close()
		s.snapMu.RUnlock()
	}()
	bw := bufio.NewWriterSize(conn, 64<<10)
	// The connection owns both request-path buffers: cr's command
	// buffer, which the arguments of the current command alias until the
	// next one is read, and val, the GET scratch. dispatch has finished
	// with both (bw has copied or written the reply) before either is
	// reused.
	cr := commandReader{br: bufio.NewReaderSize(conn, 64<<10)}
	var val []byte
	served := 0
	for {
		args, err := cr.next()
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				writeErrorReply(bw, err.Error())
				bw.Flush()
			}
			return
		}
		quit := s.dispatch(bw, th, args, &val)
		if cap(val) > retainBytes {
			val = nil
		}
		s.ops.Add(1)
		served++
		if served%flushEvery == 0 {
			s.snapMu.RLock()
			if f, ok := th.(alloc.Flusher); ok {
				f.Flush()
			}
			s.snapMu.RUnlock()
		}
		// Pipelining: only pay the write syscall when no further
		// command is already buffered.
		if cr.br.Buffered() == 0 || quit {
			if err := bw.Flush(); err != nil {
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
// goes through *val, the connection's scratch, reusing its capacity: the
// copy out of the heap happens inside the store, under the key's stripe
// lock, and the write to bw after it, so a slow peer never holds a
// stripe. dispatch reports whether the connection should close (QUIT).
func (s *Server) dispatch(bw *bufio.Writer, th alloc.Thread, args [][]byte, val *[]byte) bool {
	name := args[0]
	if commandIs(name, "SNAPSHOT") {
		// Drain this thread's deferred buffers under the read lock,
		// then let Snapshot take the write lock (RWMutex does not
		// upgrade, so SNAPSHOT stays outside the RLock'd switch).
		s.snapMu.RLock()
		if f, ok := th.(alloc.Flusher); ok {
			f.Flush()
		}
		s.snapMu.RUnlock()
		if err := s.Snapshot(); err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeStatus(bw, "saved "+s.snapshotPath)
		return false
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	switch {
	case commandIs(name, "PING"):
		writeStatus(bw, "PONG")
	case commandIs(name, "GET"):
		if len(args) != 2 {
			writeErrorReply(bw, "GET needs 1 argument")
			return false
		}
		v, ok, err := s.store.AppendGet(th, s.now(), (*val)[:0], args[1])
		*val = v
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
		if err := s.store.Set(th, s.now(), args[1], args[2], ttl); err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeStatus(bw, "OK")
	case commandIs(name, "DEL"):
		if len(args) != 2 {
			writeErrorReply(bw, "DEL needs 1 argument")
			return false
		}
		ok, err := s.store.Del(th, args[1])
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
		ok, err := s.store.Expire(th, s.now(), args[1], ttl)
		if err != nil {
			writeErrorReply(bw, err.Error())
			return false
		}
		writeInt(bw, b2i(ok))
	case commandIs(name, "STATS"):
		if f, ok := th.(alloc.Flusher); ok {
			f.Flush()
		}
		writeBulk(bw, []byte(s.store.StatsText()))
	case commandIs(name, "QUIT"):
		writeStatus(bw, "OK")
		return true
	default:
		writeErrorReply(bw, fmt.Sprintf("unknown command %q", name))
	}
	return false
}

// Snapshot writes a point-in-time copy of the heap image to the
// configured path (temp file + rename, so a host crash mid-save never
// leaves a torn snapshot). Mutations are quiesced (snapMu held for
// write) while the image is captured, so the snapshot is a consistent
// cut on both device kinds: on a simulated device the persisted media
// image is saved; on a direct device the mmap is copied to a private
// buffer under the lock and written out after serving resumes.
// `nvstat -check` (or -repair) still validates a snapshot before it is
// trusted, guarding against media-level corruption.
func (s *Server) Snapshot() error {
	if s.snapshotPath == "" {
		return errors.New("nvkv: snapshots disabled (no snapshot path configured)")
	}
	switch dev := s.heap.Device().(type) {
	case *pmem.Device:
		s.snapMu.Lock()
		err := dev.SaveImage(s.snapshotPath)
		s.snapMu.Unlock()
		return err
	default:
		s.snapMu.Lock()
		src := dev.Bytes(0, int(dev.Size()))
		img := make([]byte, len(src))
		copy(img, src)
		s.snapMu.Unlock()
		dir := filepath.Dir(s.snapshotPath)
		tmp, err := os.CreateTemp(dir, ".nvkv-snap-*")
		if err != nil {
			return err
		}
		name := tmp.Name()
		_, err = tmp.Write(img)
		if err == nil {
			err = tmp.Sync()
		}
		if err != nil {
			tmp.Close()
			os.Remove(name)
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(name)
			return err
		}
		return os.Rename(name, s.snapshotPath)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
