package crashmc

import (
	"fmt"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
	"nvalloc/internal/torture"
)

// OpRecord is one executed trace op with everything the oracle needs:
// its result, its window of journaled flushes, and the heap's space
// accounting after it completed.
type OpRecord struct {
	Op   Op
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
	Target      torture.Target
	Trace       Trace
	DeviceBytes uint64
	// Journal is the device's flush journal; boundary k is the image
	// after the first k flushes, for k in [JournalBase, JournalBase +
	// len(Journal)]. JournalBase is 0 (and BaseImage nil) unless the
	// recording ran with a checkpointed journal
	// (RecordOptions.JournalCheckpointEvery), in which case BaseImage is
	// the media image at boundary JournalBase and earlier boundaries are
	// no longer enumerable.
	Journal     []pmem.FlushDelta
	JournalBase int
	BaseImage   []byte
	// Sched is the schedule key the recording was made under ("" for
	// single-threaded recordings, "rr"/"rr+p@..." for ConcRecord ones).
	// Non-empty Sched means op flush windows may overlap: ops are in
	// completion order (FlushEnd nondecreasing), not trace order.
	Sched string
	// CreatedAt is the boundary at which Create had fully returned:
	// before it, recovery may refuse the image (typed error); from it
	// on, every boundary MUST recover.
	CreatedAt int
	// CloseStart is the boundary at which heap shutdown (thread drains
	// plus Close) began.
	CloseStart int
	Ops        []OpRecord
	MaxUsed    uint64
	MaxLease   uint64
	// Dev is the recording device after a clean shutdown (its cache and
	// media images agree); classification reads layout fields from it.
	Dev *pmem.Device
	// opts is what the recording was made with, for VerifyCacheCuts, which
	// runs the trace again.
	opts RecordOptions
}

// Boundaries returns the number of persistence boundaries in the
// recording (every k in [JournalBase, Boundaries()) is a valid crash
// point, where Boundaries()-1 is the fully flushed final image).
func (r *Recording) Boundaries() int { return r.JournalBase + len(r.Journal) + 1 }

// RecordOptions parameterizes Record.
type RecordOptions struct {
	// DeviceBytes sizes the device (default DefaultDeviceBytes).
	DeviceBytes uint64
	// Probe, when non-nil, is sampled after every op (e.g. a morph
	// counter, to locate the op that triggered a structure transition).
	Probe func(h alloc.Heap) uint64
	// JournalCheckpointEvery, when > 0, records on a checkpointed journal
	// (pmem.Config.JournalCheckpointEvery): journal memory stays bounded
	// for long traces, at the cost of losing boundaries below the fold
	// point (Recording.JournalBase).
	JournalCheckpointEvery int
}

// markerFor derives the data marker written into the block published by
// trace op i. The value is far outside any device address range, so a
// conservative scan can never mistake it for a heap pointer.
func markerFor(i int) uint64 { return 0xC0FFEE0000000000 | uint64(i+1) }

// Record executes tr against a fresh heap of tg on a journaled strict
// device and captures the flush journal plus per-op windows. The trace
// runs on a single goroutine (thread handles are used serially), so the
// journal — and therefore every enumerated crash image — is
// deterministic.
func Record(tg torture.Target, tr Trace, opts RecordOptions) (*Recording, error) {
	return record(tg, tr, opts, nil)
}

// record is Record with a hook: onFlush, when non-nil, runs after every
// journaled flush, Create's included, with the recording device — whose
// cache image is then the state a process kill at that instant leaves in a
// page-cache-backed mapping — and the number of flushes so far.
func record(tg torture.Target, tr Trace, opts RecordOptions, onFlush func(dev *pmem.Device, flushes int)) (*Recording, error) {
	if opts.DeviceBytes == 0 {
		opts.DeviceBytes = DefaultDeviceBytes
	}
	cfg := pmem.Config{
		Size: opts.DeviceBytes, Strict: true, Journal: true,
		JournalCheckpointEvery: opts.JournalCheckpointEvery,
	}
	var dev *pmem.Device
	if onFlush != nil {
		cfg.OnJournal = func(flushes int) { onFlush(dev, flushes) }
	}
	dev = pmem.New(cfg)
	h, err := tg.Create(dev)
	if err != nil {
		return nil, fmt.Errorf("crashmc: create %s: %w", tg.Name, err)
	}
	rec := &Recording{
		Target:      tg,
		Trace:       tr,
		DeviceBytes: opts.DeviceBytes,
		CreatedAt:   dev.JournalLen(),
		Ops:         make([]OpRecord, 0, len(tr.Ops)),
		Dev:         dev,
		opts:        opts,
	}
	nThreads := tr.Threads
	if nThreads < 1 {
		nThreads = 1
	}
	threads := make([]alloc.Thread, nThreads)
	thread := func(i int) alloc.Thread {
		if threads[i] == nil {
			threads[i] = h.NewThread()
		}
		return threads[i]
	}

	for i, op := range tr.Ops {
		if op.Thread < 0 || op.Thread >= nThreads {
			return nil, fmt.Errorf("crashmc: op %d: thread %d out of range", i, op.Thread)
		}
		or := OpRecord{Op: op, FlushStart: dev.JournalLen()}
		th := thread(op.Thread)
		switch op.Kind {
		case OpMalloc:
			a, err := th.Malloc(op.Size)
			or.Addr, or.Err = a, err != nil
		case OpFree:
			if op.Ref < 0 || op.Ref >= i {
				return nil, fmt.Errorf("crashmc: op %d: bad free ref %d", i, op.Ref)
			}
			target := rec.Ops[op.Ref]
			if target.Err || target.Addr == 0 {
				or.Err = true // the alloc failed; nothing to free
				break
			}
			or.Addr = target.Addr
			or.Err = th.Free(target.Addr) != nil
		case OpMallocTo:
			slot := h.RootSlot(op.Slot)
			a, err := th.MallocTo(slot, op.Size)
			or.Addr, or.Err = a, err != nil
			if err == nil {
				// Persist a data marker as part of the op window: if the
				// publish and this flush are both durable at a boundary,
				// the recovered block must still carry the marker.
				or.Marker = markerFor(i)
				dev.WriteU64(a, or.Marker)
				c := th.Ctx()
				c.Flush(pmem.CatOther, a, 8)
				c.Fence()
			}
		case OpFreeFrom:
			or.Err = th.FreeFrom(h.RootSlot(op.Slot)) != nil
		case OpPublish:
			a, err := th.Reserve(op.Size)
			if err == nil {
				// The marker is part of the reservation's fill: wherever
				// the publish is found done, the block must carry it.
				or.Marker = markerFor(i)
				dev.WriteU64(a, or.Marker)
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
			return nil, fmt.Errorf("crashmc: op %d: unknown kind %v", i, op.Kind)
		}
		or.FlushEnd = dev.JournalLen()
		or.UsedAfter = h.Used()
		if or.UsedAfter > rec.MaxUsed {
			rec.MaxUsed = or.UsedAfter
		}
		if lo, ok := h.(interface{ LeaseOverhead() uint64 }); ok {
			if v := lo.LeaseOverhead(); v > rec.MaxLease {
				rec.MaxLease = v
			}
		}
		if opts.Probe != nil {
			or.Probe = opts.Probe(h)
		}
		rec.Ops = append(rec.Ops, or)
	}

	rec.CloseStart = dev.JournalLen()
	for _, th := range threads {
		if th != nil {
			th.Close()
		}
	}
	if err := h.Close(); err != nil {
		return nil, fmt.Errorf("crashmc: close %s: %w", tg.Name, err)
	}
	rec.Journal = dev.JournalSnapshot()
	rec.JournalBase = dev.JournalBase()
	rec.BaseImage = dev.JournalCheckpoint()
	return rec, nil
}
