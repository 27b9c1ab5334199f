package traffic

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"testing"

	"nvalloc/internal/nvkv"
)

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// rankFrequencySlope fits log(frequency) against log(rank+1) over the
// hottest ranks, where counts are large enough for the fit to be tight.
// A zipfian source with exponent s and offset 1 reads -s.
func rankFrequencySlope(t *testing.T, counts []int, ranks int) float64 {
	t.Helper()
	var xs, ys []float64
	for k := 0; k < ranks; k++ {
		if counts[k] < 100 {
			t.Fatalf("rank %d drawn only %d times: sample too small to fit", k, counts[k])
		}
		xs = append(xs, math.Log(float64(k+1)))
		ys = append(ys, math.Log(float64(counts[k])))
	}
	return slope(xs, ys)
}

// TestGenScriptKeyPopularityIsZipfian: the replay script the crash
// harness records draws keys with exponent 1.2, hottest key first.
func TestGenScriptKeyPopularityIsZipfian(t *testing.T) {
	const keys = 64
	sc := GenScript(3, 30000, keys)
	index := make(map[string]int, keys)
	for i, k := range sc.Keys {
		index[k] = i
	}
	counts := make([]int, keys)
	for _, op := range sc.Ops {
		counts[index[op.Key]]++
	}
	if got := rankFrequencySlope(t, counts, 12); math.Abs(got+1.2) > 0.08 {
		t.Fatalf("rank-frequency slope %.3f, want -1.2", got)
	}
	if !sort.SliceIsSorted(counts[:6], func(i, j int) bool { return counts[i] > counts[j] }) {
		t.Fatalf("hottest keys out of order: %v", counts[:6])
	}
}

// scriptedPeer is the server side of a net.Pipe: it answers every GET
// from held (an absent key reads nil) until the client hangs up. Like
// the real server it flushes once its input runs dry, so a pipelined
// batch is answered in one write; its reader is large enough to take a
// whole batch in one read, since the pipe is unbuffered and the client
// reads no reply before its own write has been consumed.
func scriptedPeer(conn net.Conn, held map[string][]byte) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriter(conn)
	for {
		args, err := nvkv.ReadCommand(br)
		if err != nil {
			return
		}
		if v, ok := held[string(args[1])]; ok {
			fmt.Fprintf(bw, "$%d\r\n%s\r\n", len(v), v)
		} else {
			bw.WriteString("$-1\r\n")
		}
		if br.Buffered() == 0 {
			bw.Flush()
		}
	}
}

// verifyAgainst runs VerifyAcked against a scripted peer holding held.
func verifyAgainst(held map[string][]byte, acked map[uint64]Ack, tainted map[uint64]bool) (checked, skipped int, err error) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		scriptedPeer(server, held)
		close(done)
	}()
	checked, skipped, err = VerifyAcked(client, acked, tainted)
	client.Close()
	<-done
	return checked, skipped, err
}

// TestVerifyAckedFailsOnEveryLossItWasNotToldToSkip tests the tester:
// each way a restarted server can betray an acknowledgement is an error
// naming the key, the two escape hatches (tainted, Ack.Unsafe) skip
// exactly the keys flagged before the kill and count them, and a flagged
// key's loss never hides an unflagged one's.
func TestVerifyAckedFailsOnEveryLossItWasNotToldToSkip(t *testing.T) {
	// on returns key k's acknowledgement and what the peer holds for it
	// instead (nil: the peer answers nil).
	losses := []struct {
		name string
		on   func(k uint64) (Ack, []byte)
		want string
	}{
		{"acked SET answered nil",
			func(k uint64) (Ack, []byte) { return Ack{Seq: 3, Size: 40}, nil }, "SET lost"},
		{"acked SET answered with wrong bytes",
			func(k uint64) (Ack, []byte) { return Ack{Seq: 3, Size: 40}, ValBytes(k, 2, 40) }, "SET corrupted"},
		{"acked DEL answered with a value",
			func(k uint64) (Ack, []byte) { return Ack{Deleted: true}, ValBytes(k, 3, 40) }, "DEL violated"},
	}
	for _, l := range losses {
		// state puts the loss on every one of keys.
		state := func(unsafe bool, keys ...uint64) (map[string][]byte, map[uint64]Ack) {
			held, acked := map[string][]byte{}, map[uint64]Ack{}
			for _, k := range keys {
				a, v := l.on(k)
				a.Unsafe = unsafe
				acked[k] = a
				if v != nil {
					held[KeyName(k)] = v
				}
			}
			return held, acked
		}
		fails := func(when string, err error, key uint64) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), l.want) || !strings.Contains(err.Error(), ": "+KeyName(key)+" ") {
				t.Errorf("%s%s: err = %v, want %q naming %s", l.name, when, err, l.want, KeyName(key))
			}
		}

		held, acked := state(false, 7)
		checked, skipped, err := verifyAgainst(held, acked, nil)
		fails("", err, 7)
		if checked != 0 || skipped != 0 {
			t.Errorf("%s: checked %d skipped %d, want 0 0", l.name, checked, skipped)
		}

		// Flagged before the kill: skipped, and counted as skipped.
		checked, skipped, err = verifyAgainst(held, acked, map[uint64]bool{7: true})
		if err != nil || checked != 0 || skipped != 1 {
			t.Errorf("%s, tainted: checked %d skipped %d err %v, want 0 1 nil", l.name, checked, skipped, err)
		}
		held, acked = state(true, 7)
		checked, skipped, err = verifyAgainst(held, acked, nil)
		if err != nil || checked != 0 || skipped != 1 {
			t.Errorf("%s, unsafe: checked %d skipped %d err %v, want 0 1 nil", l.name, checked, skipped, err)
		}

		// The same loss on a second key nobody flagged still fails; taint
		// on a key the acknowledgements never mention excuses nothing.
		held, acked = state(false, 7, 8)
		_, skipped, err = verifyAgainst(held, acked, map[uint64]bool{7: true, 99: true})
		fails(" beside a tainted key", err, 8)
		if skipped != 1 {
			t.Errorf("%s beside a tainted key: skipped %d, want 1", l.name, skipped)
		}
	}
}

// TestVerifyAckedChecksEveryBatch: a state that matches its
// acknowledgements passes with every key counted, and one loss among
// several pipelined batches is found wherever it falls.
func TestVerifyAckedChecksEveryBatch(t *testing.T) {
	const keys = 700 // three batches of 256
	held := map[string][]byte{}
	acked := map[uint64]Ack{}
	for k := uint64(0); k < keys; k++ {
		if k%3 == 0 {
			acked[k] = Ack{Deleted: true}
			continue
		}
		acked[k] = Ack{Seq: k + 1, Size: int(k % 90)}
		held[KeyName(k)] = ValBytes(k, k+1, int(k%90))
	}
	checked, skipped, err := verifyAgainst(held, acked, nil)
	if err != nil || checked != keys || skipped != 0 {
		t.Fatalf("matching state: checked %d skipped %d err %v, want %d 0 nil", checked, skipped, err, keys)
	}
	delete(held, KeyName(400))
	if _, _, err = verifyAgainst(held, acked, nil); err == nil || !strings.Contains(err.Error(), ": "+KeyName(400)+" ") {
		t.Fatalf("one lost key of %d: err = %v, want it to name %s", keys, err, KeyName(400))
	}
}
