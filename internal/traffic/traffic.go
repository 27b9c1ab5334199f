// Package traffic holds what the repo's two nvkv harnesses share, and no
// load generator of its own:
//
//   - the deterministic half (replay.go): a seeded script of SET / GET /
//     DEL / EXPIRE operations with a logical clock, the one function that
//     runs it (Replay), and the model that says what a recovered store
//     must hold after any prefix of it — internal/crashmc's kv-session
//     family records the script against a virtual-time server and cuts
//     the image at every persistence boundary;
//   - the acked-state oracle pieces (this file): the wire name of key i,
//     the regenerable payload of its seq'th mutation, the record of a
//     key's last acknowledged mutation, and VerifyAcked, which holds a
//     restarted server to those records. benchmark/ (BENCHMARK.json) is
//     the one wall-clock load generator and the one kill -9 drill; its
//     clients keep the records and its crash phase calls VerifyAcked.
//
// Hist (hist.go) is the latency histogram benchmark/ reports with. It
// lives here because benchmark/ is frozen and imports it from here.
package traffic

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"

	"nvalloc/internal/nvkv"
)

// Ack is the last acknowledged mutation of one key.
type Ack struct {
	Seq  uint64
	Size int
	// Deleted: the last acked mutation removed the key.
	Deleted bool
	// Unsafe: expiry is in play (TTL'd SET or a later EXPIRE), so the
	// key's post-crash presence is time-dependent and the oracle skips
	// it.
	Unsafe bool
}

// KeyName is the wire form of key i.
func KeyName(i uint64) string { return "u" + strconv.FormatUint(i, 10) }

// ValBytes deterministically regenerates the payload of key's seq'th
// mutation, so the oracle verifies exact bytes without storing values.
func ValBytes(key, seq uint64, size int) []byte {
	b := make([]byte, size)
	x := key*0x9E3779B97F4A7C15 + seq*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// VerifyAcked is the post-restart durability oracle: over a fresh
// connection it GETs every acked, non-tainted, expiry-free key and
// asserts the exact acknowledged outcome — last-set bytes present, or
// deleted keys absent. tainted names the keys whose mutation was in
// flight (sent, unacknowledged) when the server died: their state is
// unknowable from outside. It returns how many keys were checked and how
// many skipped (tainted or expiry-dependent); nothing else is skipped.
func VerifyAcked(conn net.Conn, acked map[uint64]Ack, tainted map[uint64]bool) (checked, skipped int, err error) {
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 256<<10)
	keys := make([]uint64, 0, len(acked))
	for k, a := range acked {
		if tainted[k] || a.Unsafe {
			skipped++
			continue
		}
		keys = append(keys, k)
	}
	const batch = 256
	for start := 0; start < len(keys); start += batch {
		end := start + batch
		if end > len(keys) {
			end = len(keys)
		}
		for _, k := range keys[start:end] {
			if err := nvkv.WriteCommand(bw, []byte("GET"), []byte(KeyName(k))); err != nil {
				return checked, skipped, err
			}
		}
		if err := bw.Flush(); err != nil {
			return checked, skipped, err
		}
		for _, k := range keys[start:end] {
			rep, err := nvkv.ReadReply(br)
			if err != nil {
				return checked, skipped, fmt.Errorf("oracle GET %s: %w", KeyName(k), err)
			}
			a := acked[k]
			if a.Deleted {
				if rep.Kind != nvkv.ReplyNil {
					return checked, skipped, fmt.Errorf("acknowledged DEL violated: %s present after restart", KeyName(k))
				}
			} else {
				if rep.Kind != nvkv.ReplyBulk {
					return checked, skipped, fmt.Errorf("acknowledged SET lost: %s absent after restart (reply kind %d)", KeyName(k), rep.Kind)
				}
				if want := ValBytes(k, a.Seq, a.Size); !bytes.Equal(rep.Bulk, want) {
					return checked, skipped, fmt.Errorf("acknowledged SET corrupted: %s has %d bytes, want %d (seq %d)", KeyName(k), len(rep.Bulk), a.Size, a.Seq)
				}
			}
			checked++
		}
	}
	return checked, skipped, nil
}
