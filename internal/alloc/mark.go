package alloc

import "nvalloc/internal/pmem"

// Mark is the mark phase of a conservative collection from h's root slots:
// an object is reachable when a root slot, or an 8-byte-aligned word inside
// a reachable object, holds its exact start address. resolve reports the
// size of the object p starts (ok false: p starts none); charge is called
// with each reachable object's size as it is scanned. It returns the set of
// reachable objects' start addresses.
func Mark(h Heap, resolve func(p pmem.PAddr) (size uint64, ok bool), charge func(size uint64)) map[pmem.PAddr]bool {
	type object struct {
		addr pmem.PAddr
		size uint64
	}
	dev := h.Device()
	marked := make(map[pmem.PAddr]bool)
	var work []object
	visit := func(p pmem.PAddr) {
		if size, ok := resolve(p); ok && !marked[p] {
			marked[p] = true
			work = append(work, object{p, size})
		}
	}
	for i := 0; i < NumRootSlots; i++ {
		visit(pmem.PAddr(dev.ReadU64(h.RootSlot(i))))
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		charge(o.size)
		for off := uint64(0); off+8 <= o.size; off += 8 {
			visit(pmem.PAddr(dev.ReadU64(o.addr + pmem.PAddr(off))))
		}
	}
	return marked
}
