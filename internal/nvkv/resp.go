// Package nvkv is the network-facing persistent key-value service built
// on the NVAlloc heap: a TCP server speaking a minimal RESP-like wire
// protocol whose keys index through the persistent hash (internal/phash)
// and whose values live in allocator-backed, CRC-sealed record blobs.
//
// The service runs on either execution mode: a virtual-time pmem.Device
// for deterministic tests (the crash-restart harness records the flush
// journal and reopens the image at every persistence boundary) or a
// DirectDev — an mmap'd heap file — for wall-clock serving, where a
// kill -9 loses nothing that was acknowledged.
//
// Acknowledged durability is the service contract: a reply is written
// only after the operation's commit point (the index entry's 8-byte
// atomic persist, plus the allocator's WAL/bitmap commits) has been
// fenced. See DESIGN.md §10, which also walks the request path: each
// connection owns one command buffer and one value scratch, and serving
// a command in the steady state allocates nothing on the Go heap.
package nvkv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Wire-protocol limits. A frame above them is rejected on its header,
// and the server sizes no allocation from a header at all: a command's
// bytes are appended to the connection's buffer as they arrive (see
// commandReader.bulk). ReadReply, the client side, does allocate the
// announced length; it reads from a server it chose to connect to.
const (
	// MaxArgs is the maximum elements in one command array.
	MaxArgs = 8
	// MaxBulk is the maximum byte length of one bulk string (and so the
	// maximum value size the protocol can carry).
	MaxBulk = 8 << 20
	// maxLineLen bounds a single protocol line (inline commands and
	// length headers).
	maxLineLen = 16 << 10
)

// ErrProtocol is the sentinel wrapped by every wire-protocol parse
// error. The parser returns typed errors and never panics, whatever the
// input (FuzzRESPParse holds it to that); io errors (io.EOF,
// io.ErrUnexpectedEOF) pass through unwrapped so callers can tell a
// closed peer from a malformed frame.
var ErrProtocol = errors.New("nvkv: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// readLine reads one CRLF-terminated line, rejecting lines longer than
// maxLineLen and bare-LF or bare-CR terminators.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoErrf("line exceeds %d bytes", maxLineLen)
		}
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if len(line) > maxLineLen {
		return nil, protoErrf("line exceeds %d bytes", maxLineLen)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, protoErrf("line not CRLF-terminated")
	}
	return line[:len(line)-2], nil
}

// parseInt parses a decimal integer from a protocol line without
// tolerating signs, blanks, or empty input (lengths and counts are
// always non-negative on the wire; -1 nil frames are handled by their
// dedicated reply paths). Values that would wrap int64 are rejected, so
// the result is always >= 0 — a 19-digit header like 9999999999999999999
// must never reach a length check as a negative number.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 19 {
		return 0, protoErrf("bad integer %q", b)
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, protoErrf("bad integer %q", b)
		}
		d := int64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, protoErrf("integer %q overflows", b)
		}
		n = n*10 + d
	}
	return n, nil
}

// retainBytes is the largest buffer a connection keeps between commands:
// the command buffer and the GET value scratch are both grow-only up to
// it. 256 KiB keeps a 128 KiB value plus its key on the reuse path with
// room for append's 1.25x growth overshoot; a command or value above it
// gets a one-off buffer that is dropped before the next command is
// parsed, so a connection waiting for input never pins more than
// 2 x retainBytes of Go heap.
const retainBytes = 256 << 10

// readStep bounds how far the command buffer is grown ahead of the
// bytes that have actually arrived.
const readStep = 64 << 10

// commandReader parses client commands into one reusable buffer.
type commandReader struct {
	br *bufio.Reader
	// buf holds the argument bytes of the current command back to back.
	buf  []byte
	args [MaxArgs][]byte
}

// next reads one client command: either a RESP array of bulk strings
// (*N\r\n$len\r\npayload\r\n...) or a space-separated inline line. It
// returns the argument vector; the first element is the command name.
// The arguments alias the reader's buffer and are valid until the next
// call. Limits: at most MaxArgs arguments, at most MaxBulk bytes per
// argument. Every parse failure wraps ErrProtocol; next never panics.
func (r *commandReader) next() ([][]byte, error) {
	if cap(r.buf) > retainBytes {
		// args still points into it: both go.
		r.buf, r.args = nil, [MaxArgs][]byte{}
	}
	r.buf = r.buf[:0]
	first, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if first != '*' {
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		return r.inline()
	}
	header, err := readLine(r.br)
	if err != nil {
		return nil, err
	}
	n, err := parseInt(header)
	if err != nil {
		return nil, err
	}
	if n < 1 || n > MaxArgs {
		return nil, protoErrf("array of %d elements (limit %d)", n, MaxArgs)
	}
	// ends[i] is where argument i ends in buf (it starts at ends[i-1]):
	// offsets, not slices, because buf may move until the last byte is in.
	var ends [MaxArgs]int
	for i := 0; i < int(n); i++ {
		if err := r.bulk(); err != nil {
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		ends[i] = len(r.buf)
	}
	start := 0
	for i, end := range ends[:n] {
		r.args[i] = r.buf[start:end:end]
		start = end
	}
	return r.args[:n], nil
}

// bulk appends the payload of one $len\r\npayload\r\n frame to buf. The
// header only bounds the loop: buf grows by at most readStep beyond the
// bytes received, so a peer that announces MaxBulk and stalls holds one
// step, not the announced size.
func (r *commandReader) bulk() error {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if prefix != '$' {
		return protoErrf("expected bulk string, got %q", prefix)
	}
	header, err := readLine(r.br)
	if err != nil {
		return err
	}
	n, err := parseInt(header)
	if err != nil {
		return err
	}
	if n < 0 || n > MaxBulk {
		return protoErrf("bulk of %d bytes (limit %d)", n, MaxBulk)
	}
	for need := int(n) + 2; need > 0; {
		if len(r.buf) == cap(r.buf) {
			r.buf = slices.Grow(r.buf, min(need, readStep))
		}
		chunk := r.buf[len(r.buf):min(len(r.buf)+need, cap(r.buf))]
		if _, err := io.ReadFull(r.br, chunk); err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		r.buf = r.buf[:len(r.buf)+len(chunk)]
		need -= len(chunk)
	}
	end := len(r.buf) - 2
	if r.buf[end] != '\r' || r.buf[end+1] != '\n' {
		return protoErrf("bulk payload not CRLF-terminated")
	}
	r.buf = r.buf[:end]
	return nil
}

// inline parses a space-separated inline command line (telnet
// convenience; also the framing the fuzzer stresses hardest).
func (r *commandReader) inline() ([][]byte, error) {
	line, err := readLine(r.br)
	if err != nil {
		return nil, err
	}
	// The line lives in the bufio buffer only until the next read.
	r.buf = append(r.buf, line...)
	line = r.buf
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' {
			i++
		}
		if i > start {
			if n == MaxArgs {
				return nil, protoErrf("inline command exceeds %d arguments", MaxArgs)
			}
			r.args[n] = line[start:i:i]
			n++
		}
	}
	if n == 0 {
		return nil, protoErrf("empty inline command")
	}
	return r.args[:n], nil
}

// ReadCommand reads one client command with a reader of its own, so the
// returned arguments belong to the caller. See commandReader.next for
// the framing and the limits.
func ReadCommand(br *bufio.Reader) ([][]byte, error) {
	return (&commandReader{br: br}).next()
}

// WriteCommand writes args as a RESP array of bulk strings (the client
// side of ReadCommand).
func WriteCommand(bw *bufio.Writer, args ...[]byte) error {
	bw.WriteByte('*')
	bw.WriteString(strconv.Itoa(len(args)))
	bw.WriteString("\r\n")
	for _, a := range args {
		bw.WriteByte('$')
		bw.WriteString(strconv.Itoa(len(a)))
		bw.WriteString("\r\n")
		bw.Write(a)
		bw.WriteString("\r\n")
	}
	return nil
}

// Reply kinds.
const (
	ReplyStatus = iota // +OK
	ReplyError         // -ERR ...
	ReplyInt           // :N
	ReplyBulk          // $len payload
	ReplyNil           // $-1
)

// Reply is one server response as seen by a client.
type Reply struct {
	Kind int
	// Status holds the status or error text.
	Status string
	// Int holds the integer for ReplyInt.
	Int int64
	// Bulk holds the payload for ReplyBulk.
	Bulk []byte
}

// ReadReply reads one server reply (the client side of the reply
// writers below). Parse failures wrap ErrProtocol.
func ReadReply(br *bufio.Reader) (Reply, error) {
	prefix, err := br.ReadByte()
	if err != nil {
		return Reply{}, err
	}
	switch prefix {
	case '+', '-':
		line, err := readLine(br)
		if err != nil {
			return Reply{}, err
		}
		kind := ReplyStatus
		if prefix == '-' {
			kind = ReplyError
		}
		return Reply{Kind: kind, Status: string(line)}, nil
	case ':':
		line, err := readLine(br)
		if err != nil {
			return Reply{}, err
		}
		neg := false
		if len(line) > 0 && line[0] == '-' {
			neg = true
			line = line[1:]
		}
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		if neg {
			n = -n
		}
		return Reply{Kind: ReplyInt, Int: n}, nil
	case '$':
		header, err := readLine(br)
		if err != nil {
			return Reply{}, err
		}
		if len(header) == 2 && header[0] == '-' && header[1] == '1' {
			return Reply{Kind: ReplyNil}, nil
		}
		n, err := parseInt(header)
		if err != nil {
			return Reply{}, err
		}
		if n < 0 || n > MaxBulk {
			return Reply{}, protoErrf("bulk reply of %d bytes (limit %d)", n, MaxBulk)
		}
		payload := make([]byte, n+2)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF {
				return Reply{}, io.ErrUnexpectedEOF
			}
			return Reply{}, err
		}
		if payload[n] != '\r' || payload[n+1] != '\n' {
			return Reply{}, protoErrf("bulk reply not CRLF-terminated")
		}
		return Reply{Kind: ReplyBulk, Bulk: payload[:n]}, nil
	default:
		return Reply{}, protoErrf("bad reply prefix %q", prefix)
	}
}

// Reply writers (server side).

func writeStatus(bw *bufio.Writer, s string) {
	bw.WriteByte('+')
	bw.WriteString(s)
	bw.WriteString("\r\n")
}

func writeErrorReply(bw *bufio.Writer, msg string) {
	bw.WriteString("-ERR ")
	bw.WriteString(msg)
	bw.WriteString("\r\n")
}

// The integer writers format into the writer's own spare capacity, so a
// reply builds no temporary string.

func writeInt(bw *bufio.Writer, n int64) {
	bw.WriteByte(':')
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, 10))
	bw.WriteString("\r\n")
}

func writeBulk(bw *bufio.Writer, b []byte) {
	bw.WriteByte('$')
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(b)), 10))
	bw.WriteString("\r\n")
	bw.Write(b)
	bw.WriteString("\r\n")
}

func writeNil(bw *bufio.Writer) {
	bw.WriteString("$-1\r\n")
}
