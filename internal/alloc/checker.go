package alloc

import (
	"fmt"
	"sync"

	"nvalloc/internal/pmem"
	"nvalloc/internal/rbtree"
)

// Checker wraps a Heap and verifies allocator invariants online: no two
// live allocations overlap, frees match a previous allocation exactly,
// and no allocation escapes the device. It is used by stress tests and
// is allocator-agnostic.
type Checker struct {
	Heap
	mu   sync.Mutex
	live *rbtree.Tree[pmem.PAddr, uint64] // addr -> requested size, in address order
	errs []string
}

// NewChecker wraps h.
func NewChecker(h Heap) *Checker {
	return &Checker{Heap: h, live: rbtree.New[pmem.PAddr, uint64](func(a, b pmem.PAddr) bool { return a < b })}
}

// Errors returns every invariant violation observed so far.
func (c *Checker) Errors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errs...)
}

// LiveCount returns the number of live allocations.
func (c *Checker) LiveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Len()
}

func (c *Checker) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

func (c *Checker) noteAlloc(p pmem.PAddr, size uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p == pmem.Null {
		c.fail("allocation returned null for size %d", size)
		return
	}
	if uint64(p)+size > c.Device().Size() {
		c.fail("allocation [%#x,+%d) escapes the device", p, size)
	}
	if prev, ok := c.live.Get(p); ok {
		c.fail("address %#x returned twice (live size %d)", p, prev)
		return
	}
	// The live blocks are disjoint, so only the closest one below p and the
	// closest one above it can overlap the new block.
	if a, sz, ok := c.live.Floor(p); ok && p < a+pmem.PAddr(sz) {
		c.fail("allocation [%#x,+%d) overlaps live [%#x,+%d)", p, size, a, sz)
	} else if a, sz, ok := c.live.Ceiling(p); ok && a < p+pmem.PAddr(size) {
		c.fail("allocation [%#x,+%d) overlaps live [%#x,+%d)", p, size, a, sz)
	}
	c.live.Put(p, size)
}

func (c *Checker) noteFree(p pmem.PAddr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live.Delete(p) {
		c.fail("free of address %#x that is not live", p)
		return false
	}
	return true
}

// NewThread wraps the underlying heap's thread with checking.
func (c *Checker) NewThread() Thread {
	return &checkedThread{Thread: c.Heap.NewThread(), c: c}
}

// Snapshot returns the live set sorted by address (for post-recovery
// comparison).
func (c *Checker) Snapshot() []pmem.PAddr {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]pmem.PAddr, 0, c.live.Len())
	c.live.Ascend(func(a pmem.PAddr, _ uint64) bool {
		out = append(out, a)
		return true
	})
	return out
}

type checkedThread struct {
	Thread
	c *Checker
}

func (t *checkedThread) Malloc(size uint64) (pmem.PAddr, error) {
	p, err := t.Thread.Malloc(size)
	if err == nil {
		t.c.noteAlloc(p, size)
	}
	return p, err
}

func (t *checkedThread) Free(addr pmem.PAddr) error {
	return t.release(addr, func() error { return t.Thread.Free(addr) })
}

// release deregisters addr BEFORE free runs: once the allocator releases
// the block, another thread may legally receive the same address, and its
// noteAlloc must not race with our deregistration. A failed free restores
// the registration.
func (t *checkedThread) release(addr pmem.PAddr, free func() error) error {
	known := addr != pmem.Null && t.c.noteFree(addr)
	err := free()
	if err != nil && known {
		t.c.mu.Lock()
		t.c.live.Put(addr, 0)
		t.c.mu.Unlock()
	}
	return err
}

// A reservation counts as live from Reserve on: no other thread may be
// handed its bytes while it is being filled.
func (t *checkedThread) Reserve(size uint64) (pmem.PAddr, error) {
	p, err := t.Thread.Reserve(size)
	if err == nil {
		t.c.noteAlloc(p, size)
	}
	return p, err
}

func (t *checkedThread) Unreserve(addr pmem.PAddr) error {
	return t.release(addr, func() error { return t.Thread.Unreserve(addr) })
}

func (t *checkedThread) Publish(slot, new, old pmem.PAddr) error {
	return t.release(old, func() error { return t.Thread.Publish(slot, new, old) })
}

// CountingThread wraps a Thread and counts the allocator calls made
// through it, for tests that pin how many a higher-level operation costs.
type CountingThread struct {
	Thread
	Mallocs, Frees      int
	Reserves, Publishes int
}

func (t *CountingThread) Reserve(size uint64) (pmem.PAddr, error) {
	t.Reserves++
	return t.Thread.Reserve(size)
}

func (t *CountingThread) Publish(slot, new, old pmem.PAddr) error {
	t.Publishes++
	return t.Thread.Publish(slot, new, old)
}

func (t *CountingThread) Malloc(size uint64) (pmem.PAddr, error) {
	t.Mallocs++
	return t.Thread.Malloc(size)
}

func (t *CountingThread) Free(addr pmem.PAddr) error {
	t.Frees++
	return t.Thread.Free(addr)
}
