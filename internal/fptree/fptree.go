// Package fptree implements FPTree (Oukid et al., SIGMOD 2016), the
// persistent B+tree the paper uses as its real-world allocator workload
// (Section 6.3): inner nodes live in DRAM and are rebuilt on recovery,
// leaf nodes live in persistent memory with one-byte fingerprints that
// avoid scanning whole leaves, and every stored value is a pointer to a
// separately allocated key-value blob — which makes every insert and
// delete exercise the allocator under test.
//
// Differences from the original: leaf updates are serialized with
// per-leaf locks instead of hardware transactional memory, and leaf
// splits take a tree-wide lock instead of being micro-logged. Crash
// recovery rebuilds the inner structure by walking the persistent leaf
// chain from the tree's root slot.
package fptree

import (
	"fmt"
	"sort"
	"sync"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// LeafSlots is the number of entries per persistent leaf (the paper's
// nodes hold 64 children; we use 32 leaf slots so a leaf stays within a
// few cache lines, fanout for inner nodes remains 64).
const LeafSlots = 32

// InnerFanout is the maximum children per volatile inner node.
const InnerFanout = 64

// KVBlobSize is the size of the separately allocated key-value pair
// (most pairs at Facebook are small; the paper uses 128 B).
const KVBlobSize = 128

// Persistent leaf layout.
const (
	lfBitmap = 0  // u64: slot occupancy
	lfNext   = 8  // u64: PAddr of the next leaf
	lfFP     = 16 // LeafSlots fingerprint bytes
	lfEntry  = 64 // LeafSlots * 16 B (key u64, value u64)

	// LeafBytes is the persistent footprint of one leaf.
	LeafBytes = lfEntry + LeafSlots*16
)

func fingerprint(key uint64) byte {
	h := key * 0x9E3779B97F4A7C15
	return byte(h >> 56)
}

// leaf is the volatile handle of a persistent leaf.
type leaf struct {
	addr pmem.PAddr
	res  pmem.Resource
	// minKey caches the smallest key for inner-node routing.
}

// inner is a volatile inner node.
type inner struct {
	keys     []uint64 // separators: child i holds keys < keys[i]
	children []any    // *inner or *leaf
}

// Tree is an FPTree instance bound to a heap.
type Tree struct {
	heap     alloc.Heap
	dev      pmem.Dev
	rootSlot pmem.PAddr // persistent pointer to the first (leftmost) leaf

	mu     sync.RWMutex // guards the volatile inner structure
	root   any          // *inner or *leaf
	leaves map[pmem.PAddr]*leaf
}

// Create initializes an empty tree whose head-leaf pointer persists in
// the given root slot of the heap.
func Create(h alloc.Heap, th alloc.Thread, rootSlot int) (*Tree, error) {
	t := &Tree{
		heap:     h,
		dev:      h.Device(),
		rootSlot: h.RootSlot(rootSlot),
		leaves:   make(map[pmem.PAddr]*leaf),
	}
	addr, err := alloc.MallocTo(th, t.rootSlot, LeafBytes)
	if err != nil {
		return nil, err
	}
	t.dev.Zero(addr, LeafBytes)
	th.Ctx().Flush(pmem.CatOther, addr, 16)
	th.Ctx().Fence()
	lf := &leaf{addr: addr}
	t.leaves[addr] = lf
	t.root = lf
	return t, nil
}

// Open rebuilds a tree from its persistent leaf chain after a restart.
func Open(h alloc.Heap, th alloc.Thread, rootSlot int) (*Tree, error) {
	t := &Tree{
		heap:     h,
		dev:      h.Device(),
		rootSlot: h.RootSlot(rootSlot),
		leaves:   make(map[pmem.PAddr]*leaf),
	}
	head := pmem.PAddr(t.dev.ReadU64(t.rootSlot))
	if head == pmem.Null {
		return nil, fmt.Errorf("fptree: no tree at root slot")
	}
	type leafInfo struct {
		lf  *leaf
		min uint64
		n   int
	}
	var infos []leafInfo
	for a := head; a != pmem.Null; a = pmem.PAddr(t.dev.ReadU64(a + lfNext)) {
		lf := &leaf{addr: a}
		t.leaves[a] = lf
		bm := t.dev.ReadU64(a + lfBitmap)
		min := ^uint64(0)
		n := 0
		for s := 0; s < LeafSlots; s++ {
			if bm&(1<<s) != 0 {
				k := t.dev.ReadU64(a + lfEntry + pmem.PAddr(s*16))
				if k < min {
					min = k
				}
				n++
			}
		}
		infos = append(infos, leafInfo{lf, min, n})
		th.Ctx().Charge(pmem.CatSearch, 60)
	}
	// The chain is in key order by construction; bulk-build inner nodes.
	sort.SliceStable(infos, func(i, j int) bool { return infos[i].min < infos[j].min })
	var level []any
	var seps []uint64
	for i, in := range infos {
		level = append(level, in.lf)
		if i > 0 {
			seps = append(seps, in.min)
		}
	}
	t.root = buildInner(level, seps)
	return t, nil
}

// buildInner assembles a balanced inner hierarchy over children with the
// given separators (len(seps) == len(children)-1).
func buildInner(children []any, seps []uint64) any {
	if len(children) == 1 {
		return children[0]
	}
	var upper []any
	var upperSeps []uint64
	for i := 0; i < len(children); i += InnerFanout {
		j := i + InnerFanout
		if j > len(children) {
			j = len(children)
		}
		n := &inner{children: append([]any(nil), children[i:j]...)}
		if j-1 > i {
			n.keys = append([]uint64(nil), seps[i:j-1]...)
		}
		if i > 0 {
			upperSeps = append(upperSeps, seps[i-1])
		}
		upper = append(upper, n)
	}
	return buildInner(upper, upperSeps)
}

// findLeaf descends to the leaf that should hold key. Caller holds t.mu
// (read or write).
func (t *Tree) findLeaf(key uint64) *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			i := sort.Search(len(v.keys), func(i int) bool { return key < v.keys[i] })
			n = v.children[i]
		default:
			panic("fptree: corrupt inner structure")
		}
	}
}

// leafSearch returns the slot of key in the leaf, or -1. Fingerprints
// prune the probe: only slots with a matching fingerprint byte load the
// full key from persistent memory.
func (t *Tree) leafSearch(c *pmem.Ctx, lf *leaf, key uint64) int {
	bm := t.dev.ReadU64(lf.addr + lfBitmap)
	fp := fingerprint(key)
	c.Charge(pmem.CatSearch, 8)
	for s := 0; s < LeafSlots; s++ {
		if bm&(1<<s) == 0 {
			continue
		}
		if t.dev.ReadU8(lf.addr+lfFP+pmem.PAddr(s)) != fp {
			continue
		}
		c.Charge(pmem.CatSearch, 6)
		if t.dev.ReadU64(lf.addr+lfEntry+pmem.PAddr(s*16)) == key {
			return s
		}
	}
	return -1
}

// Get returns the value stored under key.
func (t *Tree) Get(th alloc.Thread, key uint64) (uint64, bool) {
	c := th.Ctx()
	t.mu.RLock()
	lf := t.findLeaf(key)
	t.mu.RUnlock()
	lf.res.Acquire(c)
	defer lf.res.Release(c)
	s := t.leafSearch(c, lf, key)
	if s < 0 {
		return 0, false
	}
	blob := pmem.PAddr(t.dev.ReadU64(lf.addr + lfEntry + pmem.PAddr(s*16) + 8))
	return t.dev.ReadU64(blob + 8), true
}

// Insert stores value under key (overwriting an existing value). Each
// insert allocates a KVBlobSize pair through the allocator under test.
func (t *Tree) Insert(th alloc.Thread, key, value uint64) error {
	c := th.Ctx()
	for {
		t.mu.RLock()
		lf := t.findLeaf(key)
		t.mu.RUnlock()
		lf.res.Acquire(c)

		if s := t.leafSearch(c, lf, key); s >= 0 {
			// Overwrite: update the blob in place.
			blob := pmem.PAddr(t.dev.ReadU64(lf.addr + lfEntry + pmem.PAddr(s*16) + 8))
			c.PersistU64(pmem.CatOther, blob+8, value)
			c.Fence()
			lf.res.Release(c)
			return nil
		}
		bm := t.dev.ReadU64(lf.addr + lfBitmap)
		slot := -1
		for s := 0; s < LeafSlots; s++ {
			if bm&(1<<s) == 0 {
				slot = s
				break
			}
		}
		if slot >= 0 {
			err := t.insertAt(th, lf, slot, bm, key, value)
			lf.res.Release(c)
			return err
		}
		// Leaf full: split under the tree lock, then retry.
		lf.res.Release(c)
		if err := t.split(th, lf); err != nil {
			return err
		}
	}
}

// insertAt writes (key, blob) into the leaf slot: blob first, then the
// entry, then fingerprint+bit (the commit point). Caller holds lf.res.
func (t *Tree) insertAt(th alloc.Thread, lf *leaf, slot int, bm, key, value uint64) error {
	c := th.Ctx()
	blob, err := th.Malloc(KVBlobSize)
	if err != nil {
		return err
	}
	t.dev.WriteU64(blob, key)
	t.dev.WriteU64(blob+8, value)
	c.Flush(pmem.CatOther, blob, 16)

	ea := lf.addr + lfEntry + pmem.PAddr(slot*16)
	t.dev.WriteU64(ea, key)
	t.dev.WriteU64(ea+8, uint64(blob))
	c.Flush(pmem.CatOther, ea, 16)
	c.Fence()

	t.dev.WriteU8(lf.addr+lfFP+pmem.PAddr(slot), fingerprint(key))
	c.Flush(pmem.CatMeta, lf.addr+lfFP+pmem.PAddr(slot), 1)
	c.PersistU64(pmem.CatMeta, lf.addr+lfBitmap, bm|1<<slot)
	c.Fence()
	return nil
}

// Delete removes key, freeing its blob through the allocator under test.
func (t *Tree) Delete(th alloc.Thread, key uint64) (bool, error) {
	c := th.Ctx()
	t.mu.RLock()
	lf := t.findLeaf(key)
	t.mu.RUnlock()
	lf.res.Acquire(c)
	s := t.leafSearch(c, lf, key)
	if s < 0 {
		lf.res.Release(c)
		return false, nil
	}
	bm := t.dev.ReadU64(lf.addr + lfBitmap)
	blob := pmem.PAddr(t.dev.ReadU64(lf.addr + lfEntry + pmem.PAddr(s*16) + 8))
	// Clearing the bitmap bit is the atomic delete.
	c.PersistU64(pmem.CatMeta, lf.addr+lfBitmap, bm&^(1<<s))
	c.Fence()
	lf.res.Release(c)
	return true, th.Free(blob)
}

// split divides a full leaf in two under the tree write lock.
func (t *Tree) split(th alloc.Thread, lf *leaf) error {
	c := th.Ctx()
	t.mu.Lock()
	defer t.mu.Unlock()
	lf.res.Acquire(c)
	defer lf.res.Release(c)

	bm := t.dev.ReadU64(lf.addr + lfBitmap)
	if bm != (uint64(1)<<LeafSlots)-1 {
		return nil // someone else split it first
	}
	// Collect and sort the entries by key.
	type ent struct {
		key, val uint64
		slot     int
	}
	ents := make([]ent, 0, LeafSlots)
	for s := 0; s < LeafSlots; s++ {
		ea := lf.addr + lfEntry + pmem.PAddr(s*16)
		ents = append(ents, ent{t.dev.ReadU64(ea), t.dev.ReadU64(ea + 8), s})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	c.Charge(pmem.CatSearch, 200)

	// New right leaf gets the upper half.
	naddr, err := th.Malloc(LeafBytes)
	if err != nil {
		return err
	}
	t.dev.Zero(naddr, LeafBytes)
	half := ents[LeafSlots/2:]
	var nbm uint64
	for i, e := range half {
		ea := naddr + lfEntry + pmem.PAddr(i*16)
		t.dev.WriteU64(ea, e.key)
		t.dev.WriteU64(ea+8, e.val)
		t.dev.WriteU8(naddr+lfFP+pmem.PAddr(i), fingerprint(e.key))
		nbm |= 1 << i
	}
	t.dev.WriteU64(naddr+lfBitmap, nbm)
	t.dev.WriteU64(naddr+lfNext, t.dev.ReadU64(lf.addr+lfNext))
	c.Flush(pmem.CatOther, naddr, LeafBytes)
	c.Fence()
	// Link the new leaf, then shrink the old bitmap (commit point order:
	// a crash between the two steps leaves duplicates, resolved by the
	// old leaf's bitmap still holding them — recovery keeps the chain
	// consistent because lookups stop at the first match).
	c.PersistU64(pmem.CatMeta, lf.addr+lfNext, uint64(naddr))
	var obm uint64
	for _, e := range ents[:LeafSlots/2] {
		obm |= 1 << e.slot
	}
	c.PersistU64(pmem.CatMeta, lf.addr+lfBitmap, obm)
	c.Fence()

	nlf := &leaf{addr: naddr}
	t.leaves[naddr] = nlf
	t.insertSep(half[0].key, lf, nlf)
	return nil
}

// insertSep adds the separator key and new right sibling into the inner
// structure. Caller holds the tree write lock.
func (t *Tree) insertSep(sep uint64, left, right *leaf) {
	if t.root == left {
		t.root = &inner{keys: []uint64{sep}, children: []any{left, right}}
		return
	}
	overflow := t.insertSepRec(t.root.(*inner), sep, left, right)
	if overflow != nil {
		t.root = overflow
	}
}

// insertSepRec descends to left's parent, inserts, and splits inner
// nodes on the way back up; it returns a new root if the root split.
func (t *Tree) insertSepRec(n *inner, sep uint64, left, right *leaf) *inner {
	i := sort.Search(len(n.keys), func(i int) bool { return sep < n.keys[i] })
	if child, ok := n.children[i].(*inner); ok {
		if nr := t.insertSepRec(child, sep, left, right); nr != nil {
			// Child split: splice the new sibling in.
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = nr.keys[0]
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = nr.children[1]
			return t.maybeSplitInner(n)
		}
		return nil
	}
	// Leaf level: insert sep/right after left.
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	return t.maybeSplitInner(n)
}

// maybeSplitInner splits n if over fanout, returning a two-child carrier
// {leftHalf, rightHalf} with the promoted separator in keys[0].
func (t *Tree) maybeSplitInner(n *inner) *inner {
	if len(n.children) <= InnerFanout {
		return nil
	}
	mid := len(n.children) / 2
	sep := n.keys[mid-1]
	rightN := &inner{
		keys:     append([]uint64(nil), n.keys[mid:]...),
		children: append([]any(nil), n.children[mid:]...),
	}
	n.keys = n.keys[:mid-1]
	n.children = n.children[:mid]
	return &inner{keys: []uint64{sep}, children: []any{n, rightN}}
}

// Scan invokes fn on every (key, value) pair with lo <= key <= hi, in
// ascending key order, until fn returns false. It walks the persistent
// leaf chain (which is ordered by minimum key), sorting each leaf's live
// entries; like FPTree's original linearized range scans it holds each
// leaf's lock only while reading it.
func (t *Tree) Scan(th alloc.Thread, lo, hi uint64, fn func(key, value uint64) bool) {
	c := th.Ctx()
	t.mu.RLock()
	start := t.findLeaf(lo)
	t.mu.RUnlock()

	type ent struct{ k, v uint64 }
	for addr := start.addr; addr != pmem.Null; {
		t.mu.RLock()
		lf := t.leaves[addr]
		t.mu.RUnlock()
		if lf == nil {
			return
		}
		lf.res.Acquire(c)
		bm := t.dev.ReadU64(lf.addr + lfBitmap)
		var ents []ent
		for s := 0; s < LeafSlots; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			k := t.dev.ReadU64(lf.addr + lfEntry + pmem.PAddr(s*16))
			if k < lo || k > hi {
				continue
			}
			blob := pmem.PAddr(t.dev.ReadU64(lf.addr + lfEntry + pmem.PAddr(s*16) + 8))
			ents = append(ents, ent{k, t.dev.ReadU64(blob + 8)})
		}
		next := pmem.PAddr(t.dev.ReadU64(lf.addr + lfNext))
		c.Charge(pmem.CatSearch, 40)
		lf.res.Release(c)

		sort.Slice(ents, func(i, j int) bool { return ents[i].k < ents[j].k })
		for _, e := range ents {
			if !fn(e.k, e.v) {
				return
			}
		}
		// Stop once the chain has passed hi: the next leaf's minimum key
		// exceeds hi iff this leaf contained no in-range entries and its
		// entries were all above hi; cheaper: peek the next leaf lazily
		// and stop when a whole leaf lies beyond the range.
		if len(ents) == 0 && addr != start.addr {
			// A fully-out-of-range leaf after in-range ones: check if it
			// was beyond hi (then stop) or before lo (keep going).
			if minKeyOf(t.dev, addr) > hi {
				return
			}
		}
		addr = next
	}
}

func minKeyOf(dev pmem.Dev, leafAddr pmem.PAddr) uint64 {
	bm := dev.ReadU64(leafAddr + lfBitmap)
	min := ^uint64(0)
	for s := 0; s < LeafSlots; s++ {
		if bm&(1<<s) != 0 {
			if k := dev.ReadU64(leafAddr + lfEntry + pmem.PAddr(s*16)); k < min {
				min = k
			}
		}
	}
	return min
}

// Len counts the live entries by walking the leaf chain (test helper).
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	head := pmem.PAddr(t.dev.ReadU64(t.rootSlot))
	n := 0
	for a := head; a != pmem.Null; a = pmem.PAddr(t.dev.ReadU64(a + lfNext)) {
		bm := t.dev.ReadU64(a + lfBitmap)
		for ; bm != 0; bm &= bm - 1 {
			n++
		}
	}
	return n
}
