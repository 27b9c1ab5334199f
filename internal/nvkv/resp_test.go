package nvkv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

func readerFor(s string) *bufio.Reader {
	return bufio.NewReader(strings.NewReader(s))
}

func TestReadCommandArray(t *testing.T) {
	args, err := ReadCommand(readerFor("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "hello" {
		t.Fatalf("args: %q", args)
	}
	// Empty bulk strings are legal frames (the store, not the parser,
	// rejects empty keys).
	args, err = ReadCommand(readerFor("*2\r\n$3\r\nGET\r\n$0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || len(args[1]) != 0 {
		t.Fatalf("args: %q", args)
	}
}

func TestReadCommandInline(t *testing.T) {
	args, err := ReadCommand(readerFor("  GET   some-key \r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || string(args[0]) != "GET" || string(args[1]) != "some-key" {
		t.Fatalf("args: %q", args)
	}
}

func TestReadCommandErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bare LF line", "GET k\n"},
		{"empty inline", "\r\n"},
		{"too many args", "*9\r\n"},
		{"zero args", "*0\r\n"},
		{"negative count", "*-1\r\n"},
		{"count not a number", "*x\r\n"},
		{"huge bulk", "*1\r\n$99999999999\r\n"},
		{"bulk over limit", "*1\r\n$8388609\r\n"},
		// 19 digits that wrap int64 negative: must be rejected before
		// sizing an allocation (regression: make([]byte, n+2) panicked).
		{"bulk length wraps int64", "*1\r\n$9999999999999999999\r\n"},
		{"array count wraps int64", "*9999999999999999999\r\n"},
		{"bulk bad terminator", "*1\r\n$2\r\nabXX"},
		{"not a bulk", "*1\r\n:5\r\n"},
		{"giant inline line", strings.Repeat("a", 20<<10) + "\r\n"},
		{"inline too many args", "a b c d e f g h i\r\n"},
	}
	for _, c := range cases {
		_, err := ReadCommand(readerFor(c.in))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", c.name, err)
		}
	}
	// Truncation mid-frame is an io error, not a protocol error: the
	// peer hung up.
	for _, in := range []string{"", "*2\r\n$3\r\nGET\r\n", "*1\r\n$5\r\nab"} {
		_, err := ReadCommand(readerFor(in))
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("%q: err = %v, want io.EOF/ErrUnexpectedEOF", in, err)
		}
	}
}

func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	want := [][]byte{[]byte("SET"), []byte("k"), {0, 1, 2, '\r', '\n', 0xFF}}
	if err := WriteCommand(bw, want...); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadCommand(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d args", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("arg %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeStatus(bw, "OK")
	writeErrorReply(bw, "boom")
	writeInt(bw, -42)
	writeBulk(bw, []byte("payload\r\nwith crlf"))
	writeNil(bw)
	bw.Flush()
	br := bufio.NewReader(&buf)

	for _, want := range []Reply{
		{Kind: ReplyStatus, Status: "OK"},
		{Kind: ReplyError, Status: "ERR boom"},
		{Kind: ReplyInt, Int: -42},
		{Kind: ReplyBulk, Bulk: []byte("payload\r\nwith crlf")},
		{Kind: ReplyNil},
	} {
		got, err := ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Status != want.Status || got.Int != want.Int || !bytes.Equal(got.Bulk, want.Bulk) {
			t.Fatalf("reply %+v, want %+v", got, want)
		}
	}
}

// FuzzRESPParse holds the parser to its contract: arbitrary bytes never
// panic, never allocate past the frame limits, and fail only with typed
// errors (ErrProtocol or an io error).
func FuzzRESPParse(f *testing.F) {
	seeds := []string{
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
		"*1\r\n$4\r\nPING\r\n",
		"GET key\r\n",
		"*2\r\n$3\r\nGET\r\n$0\r\n\r\n",
		"*8\r\n$1\r\na\r\n",
		"$-1\r\n",
		"+OK\r\n",
		":-123\r\n",
		"-ERR nope\r\n",
		"*1\r\n$8388608\r\n",
		"\r\n",
		"*999999999999999999999\r\n",
		"*1\r\n$9999999999999999999\r\n",
		"$9999999999999999999\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			args, err := ReadCommand(br)
			if err != nil {
				if !errors.Is(err, ErrProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("untyped error: %v", err)
				}
				break
			}
			if len(args) == 0 || len(args) > MaxArgs {
				t.Fatalf("arg count %d out of contract", len(args))
			}
			for _, a := range args {
				if len(a) > MaxBulk {
					t.Fatalf("arg of %d bytes out of contract", len(a))
				}
			}
		}
		br = bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			rep, err := ReadReply(br)
			if err != nil {
				if !errors.Is(err, ErrProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("untyped reply error: %v", err)
				}
				break
			}
			if rep.Kind < ReplyStatus || rep.Kind > ReplyNil {
				t.Fatalf("reply kind %d out of contract", rep.Kind)
			}
		}
	})
}

// chunkReader hands out at most n bytes per Read, so a frame's bytes
// arrive in pieces and the parser's read loop takes more than one step.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// errClass folds an error to what callers may tell apart: nothing, a
// malformed frame, a clean close, a close mid-frame.
func errClass(t *testing.T, err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrProtocol):
		return "protocol"
	case err == io.EOF, err == io.ErrUnexpectedEOF:
		return err.Error()
	}
	t.Fatalf("untyped error: %v", err)
	return ""
}

// checkReuse holds the connection's reusing parser to the one-shot
// ReadCommand over data, command by command: same argument vectors, same
// error class, and the arguments of a command intact — whatever the
// reader has buffered since, and wherever the buffer moved while it grew
// or was dropped at the retention limit — until the next command is
// asked for. The reusing side gets its bytes chunk at a time.
func checkReuse(t *testing.T, data []byte, chunk int) {
	const size = 4096
	one := bufio.NewReaderSize(bytes.NewReader(data), size)
	cr := commandReader{br: bufio.NewReaderSize(&chunkReader{data, chunk}, size)}
	for k := 0; k < 8; k++ {
		want, wantErr := ReadCommand(one)
		got, gotErr := cr.next()
		// Make the reader shuffle its own buffer under the arguments
		// before they are looked at.
		cr.br.Peek(size)
		if w, g := errClass(t, wantErr), errClass(t, gotErr); w != g {
			t.Fatalf("command %d: reusing parser: %v, one-shot: %v", k, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("command %d: %d arguments, one-shot %d", k, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("command %d argument %d: %.40q, one-shot %.40q", k, i, got[i], want[i])
			}
		}
		if cap(cr.buf) > retainBytes && len(cr.buf) <= retainBytes/2 {
			t.Fatalf("command %d: %d-byte command in a retained buffer of %d", k, len(cr.buf), cap(cr.buf))
		}
	}
}

// TestCommandReaderRetention walks the reusing parser across the
// retention limit and back (too large for a fuzz seed: the mutator
// crawls on a 600 KiB input).
func TestCommandReaderRetention(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, retainBytes+retainBytes/2)
	script := slices.Concat(
		encode("SET", "k", string(big)),
		encode("GET", "k"),
		[]byte("get k\r\n"),
		encode("SET", "k2", string(big[:readStep+1])),
		encode("GET", "k2"),
	)
	for _, chunk := range []int{1 << 20, readStep, 4096, 7} {
		checkReuse(t, script, chunk)
	}
}

func FuzzRESPReuse(f *testing.F) {
	for _, s := range []string{
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\nGET k\r\n",
		"a b c\r\n  d \r\n*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$0\r\n\r\n",
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*1\r\n$5\r\nab",
		"PING\r\n*1\r\n$2\r\nabXX",
	} {
		f.Add([]byte(s), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		checkReuse(t, data, int(chunk)+1)
	})
}
