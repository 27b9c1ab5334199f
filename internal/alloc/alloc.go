// Package alloc defines the allocator-neutral interface shared by NVAlloc
// and the five baseline persistent allocators, so that every benchmark and
// application in this repository can run against any of them.
package alloc

import (
	"errors"

	"nvalloc/internal/pmem"
)

// Common allocator errors.
var (
	// ErrOutOfMemory is returned when the device cannot satisfy a request.
	ErrOutOfMemory = errors.New("alloc: out of persistent memory")
	// ErrBadAddress is returned when freeing an address the allocator does
	// not recognize as allocated.
	ErrBadAddress = errors.New("alloc: address was not allocated")
	// ErrBadSize is returned for zero or over-large request sizes.
	ErrBadSize = errors.New("alloc: invalid allocation size")
	// ErrClosed is returned when using a closed heap.
	ErrClosed = errors.New("alloc: heap is closed")
)

// Thread is a per-worker allocation handle. A Thread must be used by a
// single goroutine; its Ctx carries the worker's virtual clock.
type Thread interface {
	// Malloc allocates size bytes and returns its persistent address.
	Malloc(size uint64) (pmem.PAddr, error)
	// Free releases a previously allocated block or extent.
	Free(addr pmem.PAddr) error
	// Reserve takes size bytes out of the heap for this thread to fill,
	// with no persistent effect where the allocator can defer one: a crash
	// before Publish leaves the space free. A reservation ends in Publish
	// or Unreserve.
	Reserve(size uint64) (pmem.PAddr, error)
	// Unreserve returns a reservation that was never published.
	Unreserve(addr pmem.PAddr) error
	// Publish makes the 8-byte persistent word at slot reference new in
	// place of old, new allocated and old free, in one step: a strongly
	// consistent allocator leaves either all of it or none of it after a
	// crash. new is a reservation (or Null, to detach old); old is the
	// block slot referenced until now (or Null). Whatever the caller
	// flushed before the call is durable when Publish returns nil.
	Publish(slot, new, old pmem.PAddr) error
	// Ctx exposes the worker's pmem context for instrumentation.
	Ctx() *pmem.Ctx
	// Close merges the thread's statistics into the device and returns
	// cached blocks where the allocator supports it.
	Close()
}

// MallocTo allocates size bytes and publishes the block into the
// persistent pointer slot, so that a crash leaves either no allocation or
// one slot references (the paper's nvalloc_malloc_to): Reserve, then
// Publish(slot, block, Null).
func MallocTo(th Thread, slot pmem.PAddr, size uint64) (pmem.PAddr, error) {
	addr, err := th.Reserve(size)
	if err != nil {
		return pmem.Null, err
	}
	if err := th.Publish(slot, addr, pmem.Null); err != nil {
		_ = th.Unreserve(addr) // Publish's error is the one to report
		return pmem.Null, err
	}
	return addr, nil
}

// FreeFrom frees the block the persistent pointer slot references and
// clears the slot, in one crash-atomic step (the paper's
// nvalloc_free_from): Publish(slot, Null, *slot).
func FreeFrom(th Thread, slot pmem.PAddr) error {
	addr := pmem.PAddr(th.Ctx().Device().ReadU64(slot))
	if addr == pmem.Null {
		return ErrBadAddress
	}
	return th.Publish(slot, pmem.Null, addr)
}

// Flusher is implemented by threads that buffer deferred work — batched
// remote frees, most notably. Flush drains every buffer, so that all
// operations acknowledged before the call are persistent (recoverable)
// afterwards. Close flushes implicitly; callers that keep a thread open
// across an application-level durability point flush explicitly.
type Flusher interface {
	Flush()
}

// Heap is a persistent heap instance bound to a device.
type Heap interface {
	// NewThread registers a worker with the heap.
	NewThread() Thread
	// Device returns the underlying persistent memory device.
	Device() pmem.Dev
	// RootSlot returns the persistent address of root pointer slot i.
	// Roots anchor application data across restarts and are the scan
	// origins for GC-based recovery.
	RootSlot(i int) pmem.PAddr
	// Used returns the bytes of persistent memory currently committed to
	// live data, metadata regions and partially used slabs (the paper's
	// "memory consumption").
	Used() uint64
	// Peak returns the high-water mark of Used since creation or the last
	// ResetPeak.
	Peak() uint64
	// ResetPeak restarts peak tracking from the current usage.
	ResetPeak()
	// Close performs a normal shutdown (persisting the clean-shutdown
	// flag where the allocator has one).
	Close() error
}

// NumRootSlots is how many persistent root pointers every heap provides.
const NumRootSlots = 64
