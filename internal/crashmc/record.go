package crashmc

import (
	"encoding/binary"
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// OpRecord is one executed trace op with everything the oracle needs:
// its result, its window of journaled flushes, and the heap's space
// accounting after it completed.
type OpRecord struct {
	Op   Op         // the zero Op for an operation of a service trace
	Addr pmem.PAddr // result of OpMalloc/OpMallocTo/OpPublish (0 on error or skip)
	Err  bool       // the op returned an error (or was skipped)
	// FlushStart and FlushEnd bound the op's journaled flushes: the
	// journal indices before and after the op ran. A crash boundary k
	// with FlushStart < k < FlushEnd caught this op in flight.
	FlushStart, FlushEnd int
	UsedAfter            uint64
	Marker               uint64 // data marker persisted in the block (OpMallocTo, OpPublish)
	Probe                uint64 // RecordOptions.Probe value after the op
}

// Recording is a fully executed, journaled trace: the raw material the
// verifier enumerates.
type Recording struct {
	Target      Target
	Trace       Trace
	DeviceBytes uint64
	// Journal is the device's flush journal; boundary k is the image
	// after the first k flushes, for k in [0, len(Journal)].
	Journal []pmem.FlushDelta
	// Sched is the schedule key the recording was made under ("" for
	// single-threaded recordings, "rr"/"rr+p@..." for ConcRecord ones).
	// Non-empty Sched means op flush windows may overlap: ops are in
	// completion order (FlushEnd nondecreasing), not trace order.
	Sched string
	// CreatedAt is the boundary at which Create had fully returned:
	// before it, recovery may refuse the image (typed error); from it
	// on, every boundary MUST recover.
	CreatedAt int
	// Roots holds every root slot's value durable at CreatedAt: 0, or what
	// the target's Create published (a service's index).
	Roots [alloc.NumRootSlots]uint64
	// CloseStart is the boundary at which heap shutdown (thread drains
	// plus Close) began.
	CloseStart int
	Ops        []OpRecord
	MaxUsed    uint64
	MaxLease   uint64
	// Dev is the recording device after a clean shutdown (its cache and
	// media images agree); classification reads layout fields from it.
	Dev *pmem.Device
	// opts is what the recording was made with, for the cache-image cut,
	// which runs the trace again.
	opts RecordOptions
}

// Boundaries returns the number of persistence boundaries in the
// recording (every k in [0, Boundaries()) is a valid crash point, where
// Boundaries()-1 is the fully flushed final image).
func (r *Recording) Boundaries() int { return len(r.Journal) + 1 }

// RecordOptions parameterizes Record.
type RecordOptions struct {
	// Probe, when non-nil, is sampled after every op (e.g. a morph
	// counter, to locate the op that triggered a structure transition).
	Probe func(h alloc.Heap) uint64
}

// markerFor derives the data marker written into the block published by
// trace op i. The value is far outside any device address range, so a
// conservative scan can never mistake it for a heap pointer.
func markerFor(i int) uint64 { return 0xC0FFEE0000000000 | uint64(i+1) }

// session is one heap being driven through a trace: what the serial and
// the scheduled recorder share — the heap's creation, the op executor
// and the shutdown that turns the device's journal into a Recording.
type session struct {
	h   alloc.Heap
	rec *Recording
}

// newDevice returns the journaled strict device a recording runs on.
// onFlush, when non-nil, runs after every journaled flush, Create's
// included, with the device — whose cache image is then the state a
// process kill at that instant leaves in a page-cache-backed mapping —
// and the number of flushes so far.
func newDevice(onFlush func(dev *pmem.Device, flushes int)) *pmem.Device {
	cfg := pmem.Config{Size: DefaultDeviceBytes, Strict: true, Journal: true}
	var dev *pmem.Device
	if onFlush != nil {
		cfg.OnJournal = func(flushes int) { onFlush(dev, flushes) }
	}
	dev = pmem.New(cfg)
	return dev
}

// open formats a fresh heap of tg on dev and starts its recording.
func open(dev *pmem.Device, tg Target, tr Trace, sched string, opts RecordOptions) (*session, error) {
	h, err := tg.Create(dev)
	if err != nil {
		return nil, fmt.Errorf("crashmc: create %s: %w", tg.Name, err)
	}
	return &session{h: h, rec: &Recording{
		Target:      tg,
		Trace:       tr,
		DeviceBytes: dev.Size(),
		Sched:       sched,
		CreatedAt:   dev.JournalLen(),
		Dev:         dev,
		opts:        opts,
	}}, nil
}

// exec runs one op on th and returns its record: the package's one op
// executor, whatever thread, schedule or device the op runs under. marker
// is the data marker a publishing op persists in its block; ref is the
// record of the allocation an OpFree releases, nil when that allocation
// has not run (a deterministic skip, recorded as Err). The caller has
// checked op.Kind with known.
func (s *session) exec(th alloc.Thread, op Op, marker uint64, ref *OpRecord) OpRecord {
	dev, h := s.rec.Dev, s.h
	or := OpRecord{Op: op, FlushStart: dev.JournalLen()}
	switch op.Kind {
	case OpMalloc:
		a, err := th.Malloc(op.Size)
		or.Addr, or.Err = a, err != nil
	case OpFree:
		if ref == nil || ref.Err || ref.Addr == 0 {
			or.Err = true // the alloc failed or has not run; nothing to free
			break
		}
		or.Addr = ref.Addr
		or.Err = th.Free(ref.Addr) != nil
	case OpMallocTo:
		a, err := alloc.MallocTo(th, h.RootSlot(op.Slot), op.Size)
		or.Addr, or.Err = a, err != nil
		if err == nil {
			// Persist a data marker as part of the op window: if the
			// publish and this flush are both durable at a boundary,
			// the recovered block must still carry the marker.
			or.Marker = marker
			dev.WriteU64(a, marker)
			c := th.Ctx()
			c.Flush(pmem.CatOther, a, 8)
			c.Fence()
		}
	case OpFreeFrom:
		or.Err = alloc.FreeFrom(th, h.RootSlot(op.Slot)) != nil
	case OpPublish:
		a, err := th.Reserve(op.Size)
		if err == nil {
			// The marker is part of the reservation's fill: wherever
			// the publish is found done, the block must carry it.
			or.Marker = marker
			dev.WriteU64(a, marker)
			th.Ctx().Flush(pmem.CatOther, a, 8)
			slot := h.RootSlot(op.Slot)
			if err = th.Publish(slot, a, pmem.PAddr(dev.ReadU64(slot))); err != nil {
				_ = th.Unreserve(a) // the publish error is what the record keeps
			}
		}
		or.Addr, or.Err = a, err != nil
	case OpFlush:
		if f, ok := th.(alloc.Flusher); ok {
			f.Flush()
		}
	default:
		panic(fmt.Sprintf("crashmc: exec of unchecked op kind %v", op.Kind))
	}
	s.done(&or)
	return or
}

// done closes or's flush window now and notes the heap's space after it.
func (s *session) done(or *OpRecord) {
	rec, h := s.rec, s.h
	or.FlushEnd = rec.Dev.JournalLen()
	or.UsedAfter = h.Used()
	rec.MaxUsed = max(rec.MaxUsed, or.UsedAfter)
	if lo, ok := h.(interface{ LeaseOverhead() uint64 }); ok {
		rec.MaxLease = max(rec.MaxLease, lo.LeaseOverhead())
	}
	if probe := rec.opts.Probe; probe != nil {
		or.Probe = probe(h)
	}
}

// close shuts the heap down — thread drains, then Close — and completes
// the recording with the device's journal.
func (s *session) close(threads []alloc.Thread) (*Recording, error) {
	s.rec.CloseStart = s.rec.Dev.JournalLen()
	for _, th := range threads {
		if th != nil {
			th.Close()
		}
	}
	return s.finish()
}

// finish closes the heap, whose shutdown began at CloseStart, and completes
// the recording with the device's journal and the roots durable at
// CreatedAt.
func (s *session) finish() (*Recording, error) {
	rec, dev := s.rec, s.rec.Dev
	if err := s.h.Close(); err != nil {
		return nil, fmt.Errorf("crashmc: close %s: %w", rec.Target.Name, err)
	}
	rec.Journal = dev.JournalSnapshot()
	for i := range rec.Roots {
		a := s.h.RootSlot(i)
		for _, fd := range rec.Journal[:rec.CreatedAt] {
			if fd.Line == uint64(a)/pmem.LineSize {
				off := uint64(a) % pmem.LineSize
				rec.Roots[i] = binary.LittleEndian.Uint64(fd.Data[off : off+8])
			}
		}
	}
	return rec, nil
}

// serve runs a service trace's session (Trace.Serve) and records each
// operation it acknowledges.
func (s *session) serve(run func(h alloc.Heap, acked func(i int)) error) (*Recording, error) {
	rec := s.rec
	start := rec.Dev.JournalLen()
	err := run(s.h, func(int) {
		or := OpRecord{FlushStart: start}
		s.done(&or)
		rec.Ops = append(rec.Ops, or)
		start = or.FlushEnd
	})
	if err != nil {
		return nil, fmt.Errorf("crashmc: %s on %s: %w", rec.Trace.Name, rec.Target.Name, err)
	}
	rec.CloseStart = start
	return s.finish()
}

// Record executes tr against a fresh heap of tg on a journaled strict
// device and captures the flush journal plus per-op windows. The trace
// runs on a single goroutine (thread handles are used serially; a service
// session serves one operation at a time), so the journal — and therefore
// every enumerated crash image — is deterministic.
func Record(tg Target, tr Trace, opts RecordOptions) (*Recording, error) {
	return runOn(newDevice(nil), tg, tr, opts)
}

// runOn is Record on a device the caller made: a journaled one with a
// flush hook for the cache-image cut, or one armed to lose power, for
// the test that holds the journal's images to the device's own.
func runOn(dev *pmem.Device, tg Target, tr Trace, opts RecordOptions) (*Recording, error) {
	s, err := open(dev, tg, tr, "", opts)
	if err != nil {
		return nil, err
	}
	if tr.Serve != nil {
		return s.serve(tr.Serve)
	}
	threads := make([]alloc.Thread, max(tr.Threads, 1))
	if err := s.serial(tr.Ops, threads); err != nil {
		return nil, err
	}
	return s.close(threads)
}

// serial runs ops in order, each on the handle its Thread names (created on
// first use), and appends their records: the whole of a serial trace, the
// prologue of a raced one. An OpFree's Ref indexes ops.
func (s *session) serial(ops []Op, threads []alloc.Thread) error {
	rec := s.rec
	for i, op := range ops {
		if !op.Kind.known() {
			return fmt.Errorf("crashmc: op %d: unknown kind %v", i, op.Kind)
		}
		if op.Thread < 0 || op.Thread >= len(threads) {
			return fmt.Errorf("crashmc: op %d: thread %d out of range", i, op.Thread)
		}
		var ref *OpRecord
		if op.Kind == OpFree {
			if op.Ref < 0 || op.Ref >= i {
				return fmt.Errorf("crashmc: op %d: bad free ref %d", i, op.Ref)
			}
			ref = &rec.Ops[op.Ref]
		}
		if threads[op.Thread] == nil {
			threads[op.Thread] = s.h.NewThread()
		}
		rec.Ops = append(rec.Ops, s.exec(threads[op.Thread], op, markerFor(i), ref))
	}
	return nil
}
