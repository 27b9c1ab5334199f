package main

import (
	"bufio"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"nvalloc/internal/nvkv"
)

// fakeServer is an in-test stand-in for `nvkv serve`: a correct
// in-memory KV speaking the same protocol, with switches that make it
// misbehave in exactly one way. The harness self-tests drive the real
// verification paths against it; an oracle that cannot fail proves
// nothing.
type fakeServer struct {
	l  net.Listener
	mu sync.Mutex
	kv map[string][]byte
	n  int // commands served
	// conns are closed when the test ends, which ends their goroutines.
	conns []net.Conn

	// stallAt makes command number stallAt sleep for stall first.
	stallAt int
	stall   time.Duration
	// dropSet acknowledges the first SET of this key without storing it.
	dropSet string
	// flipGet flips one payload byte in the first GET reply for this key.
	flipGet string
	// keepDel acknowledges the first DEL of this key without deleting it.
	keepDel string
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{l: l, kv: map[string][]byte{}, stallAt: -1}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, conn)
			f.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		f.mu.Lock()
		for _, c := range f.conns {
			c.Close()
		}
		f.mu.Unlock()
		wg.Wait()
	})
	return f
}

func (f *fakeServer) addr() string { return f.l.Addr().String() }

// serve answers one connection until the peer closes it.
func (f *fakeServer) serve(conn net.Conn) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		args, err := nvkv.ReadCommand(br)
		if err != nil {
			return
		}
		f.mu.Lock()
		n := f.n
		f.n++
		f.mu.Unlock()
		if n == f.stallAt {
			time.Sleep(f.stall)
		}
		f.reply(bw, args)
		if br.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
}

func (f *fakeServer) reply(bw *bufio.Writer, args [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := ""
	if len(args) > 1 {
		key = string(args[1])
	}
	switch string(args[0]) {
	case "GET":
		val, ok := f.kv[key]
		if !ok {
			bw.WriteString("$-1\r\n")
			return
		}
		if key == f.flipGet {
			f.flipGet = ""
			val = append([]byte(nil), val...)
			val[len(val)/2] ^= 0x40
		}
		bw.WriteString("$" + strconv.Itoa(len(val)) + "\r\n")
		bw.Write(val)
		bw.WriteString("\r\n")
	case "SET":
		if key == f.dropSet {
			f.dropSet = ""
		} else {
			f.kv[key] = append([]byte(nil), args[2]...)
		}
		bw.WriteString("+OK\r\n")
	case "DEL":
		_, ok := f.kv[key]
		if key == f.keepDel {
			f.keepDel = ""
		} else {
			delete(f.kv, key)
		}
		if ok {
			bw.WriteString(":1\r\n")
		} else {
			bw.WriteString(":0\r\n")
		}
	case "EXPIRE":
		if _, ok := f.kv[key]; ok {
			bw.WriteString(":1\r\n")
		} else {
			bw.WriteString(":0\r\n")
		}
	default:
		bw.WriteString("-ERR unknown command\r\n")
	}
}
