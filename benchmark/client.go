package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"nvalloc/internal/nvkv"
	"nvalloc/internal/traffic"
)

// pend is one command in flight.
type pend struct {
	op  op
	exp expect
	// due is when the op was meant to be sent (open loop) or was sent
	// (closed loop), as an offset from the phase clock.
	due time.Duration
}

// counts is what one connection did. attempted counts every command
// written; every other field except acked is a kind of failure.
type counts struct {
	attempted, acked       uint64
	errReplies, mismatches uint64
	unanswered, refused    uint64
}

func (c *counts) add(o counts) {
	c.attempted += o.attempted
	c.acked += o.acked
	c.errReplies += o.errReplies
	c.mismatches += o.mismatches
	c.unanswered += o.unanswered
	c.refused += o.refused
}

func (c counts) failed() uint64 {
	return c.errReplies + c.mismatches + c.unanswered + c.refused
}

// client is one connection to the server plus the shadow model of the
// keys it owns.
type client struct {
	id, conns int
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	pool      *valuePool
	model     model
	pending   []pend
	counts    counts
	// progress counts acknowledged ops for the window sampler, which
	// reads it from another goroutine.
	progress atomic.Uint64
	// tainted holds keys whose mutation was in flight when the
	// connection died: their state is one of two and the oracle skips
	// them until they are healed.
	tainted map[uint64]bool
	// firstMismatch keeps one message for the report.
	firstMismatch string
}

var (
	cmdGet    = []byte("GET")
	cmdSet    = []byte("SET")
	cmdDel    = []byte("DEL")
	cmdExpire = []byte("EXPIRE")
	cmdStats  = []byte("STATS")
)

func newClient(id, conns int, pool *valuePool, m model) *client {
	return &client{id: id, conns: conns, pool: pool, model: m, tainted: map[uint64]bool{}}
}

// batchMax is the most commands one batch carries (a ladder batch; the
// closed loop sends pipelineDepth).
const batchMax = 64

// syncFlushMax is the largest batch written before its replies are
// read. Anything bigger is flushed from a second goroutine while this
// one reads: otherwise client and server can each block writing to a
// peer that is not reading (kv-large's batches and their replies both
// exceed any socket buffer, and net.Pipe has none). It is below the
// server's 64 KiB read buffer, which is what makes net.Pipe safe.
const syncFlushMax = 32 << 10

func (c *client) dial(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		c.counts.refused++
		return fmt.Errorf("conn %d: dial %s: %w", c.id, addr, err)
	}
	c.attach(conn)
	return nil
}

func (c *client) attach(conn net.Conn) {
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 256<<10)
	// The writer holds a whole batch, so that send never flushes.
	c.bw = bufio.NewWriterSize(conn, max(256<<10, batchMax*(len(c.pool.bufs[0])+128)))
	c.pending = c.pending[:0]
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *client) owns(key uint64) bool { return key%uint64(c.conns) == uint64(c.id) }

// encodeOp writes o in wire form.
func encodeOp(bw *bufio.Writer, pool *valuePool, o op) {
	key := []byte(traffic.KeyName(o.key))
	switch o.kind {
	case traffic.OpGet:
		nvkv.WriteCommand(bw, cmdGet, key)
	case traffic.OpSet:
		nvkv.WriteCommand(bw, cmdSet, key, pool.value(o.pool, o.size))
	case traffic.OpDel:
		nvkv.WriteCommand(bw, cmdDel, key)
	case traffic.OpExpire:
		nvkv.WriteCommand(bw, cmdExpire, key, strconv.AppendInt(nil, o.ttlMs, 10))
	}
}

// send buffers o (the caller flushes) and folds it into the model.
func (c *client) send(o op, due time.Duration) pend {
	encodeOp(c.bw, c.pool, o)
	c.counts.attempted++
	return pend{op: o, exp: c.model.apply(o, c.owns(o.key)), due: due}
}

// checkReply holds one reply to the expectation fixed at send time.
func checkReply(pool *valuePool, p pend, rep nvkv.Reply) error {
	name := func() string { return p.op.kind.String() + " " + traffic.KeyName(p.op.key) }
	if rep.Kind == nvkv.ReplyError {
		return fmt.Errorf("%s: server error: %s", name(), rep.Status)
	}
	e := p.exp
	switch p.op.kind {
	case traffic.OpGet:
		switch rep.Kind {
		case nvkv.ReplyNil:
			if e.exact && e.present {
				return fmt.Errorf("%s: acknowledged SET lost (nil reply)", name())
			}
		case nvkv.ReplyBulk:
			if e.exact && !e.present {
				return fmt.Errorf("%s: deleted key resurrected (%d bytes)", name(), len(rep.Bulk))
			}
			if e.exact && !bytes.Equal(rep.Bulk, pool.value(e.pool, e.size)) {
				return fmt.Errorf("%s: wrong value (%d bytes, want %d of pool entry %d)", name(), len(rep.Bulk), e.size, e.pool)
			}
			if !pool.selfCheck(rep.Bulk) {
				return fmt.Errorf("%s: corrupt value (%d bytes match no payload)", name(), len(rep.Bulk))
			}
		default:
			return fmt.Errorf("%s: reply kind %d", name(), rep.Kind)
		}
	case traffic.OpSet:
		if rep.Kind != nvkv.ReplyStatus {
			return fmt.Errorf("%s: reply kind %d, want +OK", name(), rep.Kind)
		}
	case traffic.OpDel, traffic.OpExpire:
		if rep.Kind != nvkv.ReplyInt || rep.Int < 0 || rep.Int > 1 {
			return fmt.Errorf("%s: reply kind %d :%d", name(), rep.Kind, rep.Int)
		}
		if e.exact && (rep.Int == 1) != e.present {
			return fmt.Errorf("%s: replied :%d, key present=%v", name(), rep.Int, e.present)
		}
	}
	return nil
}

// recv reads and checks the reply to p. A non-nil error means the
// connection is gone.
func (c *client) recv(p pend) error {
	rep, err := nvkv.ReadReply(c.br)
	if err != nil {
		return err
	}
	c.counts.acked++
	if err := checkReply(c.pool, p, rep); err != nil {
		if rep.Kind == nvkv.ReplyError {
			c.counts.errReplies++
		} else {
			c.counts.mismatches++
		}
		if c.firstMismatch == "" {
			c.firstMismatch = err.Error()
		}
		if p.op.kind != traffic.OpGet && p.exp.exact {
			c.tainted[p.op.key] = true
		}
	}
	return nil
}

// taint marks every mutation in ps as in flight at a disconnect.
func (c *client) taint(ps []pend) {
	for _, p := range ps {
		if p.op.kind != traffic.OpGet {
			c.tainted[p.op.key] = true
		}
	}
}

// batch sends ops, flushes once and reads every reply: one round of the
// closed loop. It reports how many replies arrived; on a connection
// error the unanswered mutations are tainted.
func (c *client) batch(ops []op, due time.Duration) (int, error) {
	c.pending = c.pending[:0]
	for _, o := range ops {
		c.pending = append(c.pending, c.send(o, due))
	}
	flushed := make(chan error, 1)
	if c.bw.Buffered() <= syncFlushMax {
		flushed <- c.bw.Flush()
	} else {
		go func() { flushed <- c.bw.Flush() }()
	}
	for i, p := range c.pending {
		if err := c.recv(p); err != nil {
			c.taint(c.pending[i:])
			c.conn.Close() // unblocks a flush still in progress
			<-flushed
			return i, err
		}
	}
	if err := <-flushed; err != nil {
		return len(c.pending), err
	}
	return len(c.pending), nil
}

// stats fetches and parses the STATS reply.
func (c *client) stats() (map[string]uint64, error) {
	nvkv.WriteCommand(c.bw, cmdStats)
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	rep, err := nvkv.ReadReply(c.br)
	if err != nil {
		return nil, err
	}
	if rep.Kind != nvkv.ReplyBulk {
		return nil, fmt.Errorf("STATS: reply kind %d %s", rep.Kind, rep.Status)
	}
	out := map[string]uint64{}
	for _, line := range bytes.Split(rep.Bulk, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("STATS: %q: %w", line, err)
		}
		out[string(k)] = n
	}
	return out, nil
}

// ackedMap renders this client's shard of the model in the form
// traffic.VerifyAcked checks. With onlyTouched it covers the keys
// mutated since the previous verification, otherwise every key the run
// ever wrote or preloaded.
func (c *client) ackedMap(onlyTouched bool) map[uint64]traffic.Ack {
	acked := map[uint64]traffic.Ack{}
	for k := uint64(c.id); k < uint64(len(c.model)); k += uint64(c.conns) {
		ks := c.model[k]
		if !ks.ever || (onlyTouched && !ks.touched) {
			continue
		}
		if ks.present {
			acked[k] = traffic.Ack{Seq: c.pool.seq(k, int(ks.pool)), Size: int(ks.size)}
		} else {
			acked[k] = traffic.Ack{Deleted: true}
		}
	}
	return acked
}

func (c *client) clearTouched() {
	for k := uint64(c.id); k < uint64(len(c.model)); k += uint64(c.conns) {
		c.model[k].touched = false
	}
}
