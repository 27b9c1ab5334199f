// Package nvalloc is a Go reproduction of NVAlloc (Dang et al.,
// ASPLOS 2022): a fast, fail-safe persistent memory allocator that
// rethinks heap metadata management with three techniques —
//
//   - interleaved mapping: the metadata a variant flushes on every
//     operation — WAL and bookkeeping-log entries, and NVAlloc-IC's slab
//     bitmap bits — lands in different CPU cache lines for consecutive
//     operations, eliminating cache line reflushes;
//   - slab morphing: mostly-empty slabs transform crash-consistently
//     between size classes, removing the fragmentation of static slab
//     segregation;
//   - log-structured bookkeeping: large-allocation metadata is appended
//     to a sequential persistent log instead of updated in place,
//     removing small random writes.
//
// Because real Optane hardware is not assumed, the allocator runs on a
// simulated persistent memory device (see NewDevice) that models flush
// latency, reflush distance, sequential/random write asymmetry, XPBuffer
// pressure, ADR/eADR persistence domains and power-failure crashes, with
// a deterministic virtual-time model for multi-threaded contention. All
// of the paper's experiments regenerate on top of it (see cmd/nvbench).
//
// # Quick start
//
//	dev := nvalloc.NewDevice(nvalloc.DeviceConfig{Size: 1 << 30})
//	heap, err := nvalloc.Create(dev, nvalloc.Options{})
//	th := heap.NewThread()        // one per goroutine
//	p, err := th.Malloc(128)      // persistent address (device offset)
//	err = th.Free(p)
//
// For crash-safe pointers, publish allocations into root slots:
//
//	p, err := th.MallocTo(heap.RootSlot(0), 128)
//	// ... crash ...
//	heap, recoveryNS, err := nvalloc.Open(dev, nvalloc.Options{})
//	p = nvalloc.PAddr(dev.ReadU64(heap.RootSlot(0))) // still valid
//
// MallocTo is Reserve followed by Publish. Used apart, they replace what
// any persistent 8-byte word references in one crash-atomic step, with the
// new block filled before it becomes reachable:
//
//	p, err := th.Reserve(128)      // nothing persistent happens yet
//	// ... write the block, flush it ...
//	err = th.Publish(slot, p, old) // slot -> p, p allocated, old freed: all or nothing
package nvalloc

import (
	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// PAddr is a persistent address: a byte offset into the device.
type PAddr = pmem.PAddr

// Null is the zero PAddr.
const Null = pmem.Null

// Device is a simulated persistent memory device.
type Device = pmem.Device

// DeviceConfig configures a Device.
type DeviceConfig = pmem.Config

// Persistence-domain modes.
const (
	// ModeADR requires explicit flushes for persistence (default).
	ModeADR = pmem.ModeADR
	// ModeEADR places CPU caches in the persistence domain.
	ModeEADR = pmem.ModeEADR
)

// NewDevice creates a simulated persistent memory device.
func NewDevice(cfg DeviceConfig) *Device { return pmem.New(cfg) }

// Variant selects the crash-consistency model.
type Variant = core.Variant

// Consistency variants.
const (
	// LOG is NVAlloc-LOG: WAL-based, strongly consistent.
	LOG = core.LOG
	// GC is NVAlloc-GC: post-crash conservative GC, weakly consistent.
	GC = core.GC
	// IC is NVAlloc-IC: internal collection — eager bitmap persistence
	// with no WAL; applications resolve crash-time leaks by iterating
	// Heap.Objects (the paper's future-work variant).
	IC = core.IC
)

// Object is a live allocation reported by Heap.Objects.
type Object = core.Object

// Options configures a heap; the zero value gives the paper's defaults
// for NVAlloc-LOG.
type Options struct {
	// Variant selects NVAlloc-LOG (default) or NVAlloc-GC.
	Variant Variant
	// Arenas is the number of per-core arenas (default 16).
	Arenas int
	// DisableMorphing turns off slab morphing.
	DisableMorphing bool
}

func (o Options) toCore(dev *Device) core.Options {
	c := core.DefaultOptions(o.Variant)
	if o.Arenas > 0 {
		c.Arenas = o.Arenas
	}
	if o.DisableMorphing {
		c.Morphing = false
	}
	if dev.EADR() {
		// The paper disables interleaved mapping on eADR
		// (pmem_has_auto_flush() detection, Section 6.7).
		c.Stripes = 1
	}
	return c
}

// Heap is a persistent heap backed by a Device.
type Heap struct {
	*core.Heap
}

// Thread is a per-goroutine allocation handle.
type Thread = alloc.Thread

// NumRootSlots is the number of persistent root pointers per heap.
const NumRootSlots = alloc.NumRootSlots

// Create formats dev as a fresh NVAlloc heap.
func Create(dev *Device, opts Options) (*Heap, error) {
	h, err := core.Create(dev, opts.toCore(dev))
	if err != nil {
		return nil, err
	}
	return &Heap{h}, nil
}

// Open recovers an existing heap from dev after a restart or crash and
// returns the virtual nanoseconds the recovery consumed.
func Open(dev *Device, opts Options) (*Heap, int64, error) {
	h, ns, err := core.Open(dev, opts.toCore(dev))
	if err != nil {
		return nil, 0, err
	}
	return &Heap{h}, ns, nil
}

// Check opens a throwaway clone of dev and reports everything wrong
// with the heap image, without modifying it. Empty means the image
// opens cleanly.
func Check(dev *Device, opts Options) []string {
	return core.Check(dev, opts.toCore(dev))
}

// Scavenge repairs a damaged heap image in place — conservatively, by
// quarantining or dropping damaged structures — until it opens cleanly,
// then returns the heap and a description of every repair made.
func Scavenge(dev *Device, opts Options) (*Heap, []string, error) {
	h, repairs, err := core.Scavenge(dev, opts.toCore(dev))
	if err != nil {
		return nil, repairs, err
	}
	return &Heap{h}, repairs, nil
}

// Allocator errors re-exported for callers.
var (
	ErrOutOfMemory = alloc.ErrOutOfMemory
	ErrBadAddress  = alloc.ErrBadAddress
	ErrBadSize     = alloc.ErrBadSize
	ErrClosed      = alloc.ErrClosed
	// ErrCorrupted is the sentinel wrapped by every corruption error
	// detected while opening or recovering a heap (match with errors.Is;
	// get the region/address detail with errors.As on *pmem.CorruptError).
	ErrCorrupted = pmem.ErrCorrupted
)
