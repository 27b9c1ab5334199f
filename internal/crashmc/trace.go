package crashmc

import (
	"fmt"

	"nvalloc/internal/alloc"
)

// OpKind identifies one trace operation.
type OpKind int

const (
	// OpMalloc is an anonymous allocation (crash-safe only once
	// published; GC/IC variants may leak it).
	OpMalloc OpKind = iota
	// OpFree releases the block allocated by the trace op at index Ref.
	OpFree
	// OpMallocTo atomically allocates and publishes into root slot Slot,
	// then writes and flushes a data marker into the block.
	OpMallocTo
	// OpFreeFrom atomically frees the block published in root slot Slot.
	OpFreeFrom
	// OpFlush drains the thread's deferred buffers (batched remote
	// frees), making every acknowledged operation durable.
	OpFlush
	// OpPublish reserves Size bytes, writes and flushes a data marker into
	// the reservation, and publishes it into root slot Slot over whatever
	// block the slot holds (none: an insert; one: a replace that frees it
	// in the same step).
	OpPublish
)

var opNames = [...]string{"malloc", "free", "malloc_to", "free_from", "flush", "publish"}

// known reports whether k is a kind the executor runs; both recorders
// refuse a trace that holds any other.
func (k OpKind) known() bool { return k >= 0 && int(k) < len(opNames) }

func (k OpKind) String() string {
	if k.known() {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation of a trace. Ops execute serially, in order, on the
// thread handle named by Thread — multiple handles (bound to different
// arenas) make cross-arena paths like buffered remote frees reachable
// from a deterministic single-goroutine trace.
type Op struct {
	Kind   OpKind
	Thread int    // thread-handle index, < Trace.Threads
	Slot   int    // root-slot index (OpMallocTo / OpFreeFrom / OpPublish)
	Size   uint64 // request bytes (OpMalloc / OpMallocTo / OpPublish)
	Ref    int    // OpFree: index of the OpMalloc being freed
}

// Trace is a deterministic operation sequence over one allocator.
//
// A raced trace also has per-thread sequences that run under a Schedule
// (ConcRecord): Ops is then their serial prologue, and the executing
// handle of a Raced[t] op is thread t. Its Op.Thread is reused as the
// reference thread of an OpFree — -1 refs Ops[Ref], t >= 0 refs
// Raced[t][Ref] — and a referenced op that has not completed under the
// schedule makes the free a deterministic no-op (Err), never a block, so
// the trace is valid under every schedule.
type Trace struct {
	Name string
	// Threads is how many handles a serial trace's ops run on; a raced
	// trace has one per sequence of Raced.
	Threads int
	Ops     []Op
	Raced   [][]Op
}

// add appends op and returns its index, for a later OpFree's Ref.
func (tr *Trace) add(op Op) int {
	tr.Ops = append(tr.Ops, op)
	return len(tr.Ops) - 1
}

// mallocs appends n anonymous allocations of size by thread th and returns
// their indices; frees appends thread th's frees of refs.
func (tr *Trace) mallocs(th, n int, size uint64) []int {
	refs := make([]int, n)
	for i := range refs {
		refs[i] = tr.add(Op{Kind: OpMalloc, Thread: th, Size: size})
	}
	return refs
}

func (tr *Trace) frees(th int, refs []int) {
	for _, r := range refs {
		tr.add(Op{Kind: OpFree, Thread: th, Ref: r})
	}
}

// splitmix64 mirrors the device's deterministic mixer so trace
// generation is reproducible from a seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// SmokeTrace is the model checker's canonical mixed trace: root
// publishes with data markers, seeded anonymous churn, republish cycles,
// large extent allocations (bookkeeping-log traffic, and with the smoke
// targets' low GC threshold, incremental slow-GC steps), and a
// cross-arena remote-free batch drained by an explicit flush. It is
// deliberately small: its value is that *every* persistence boundary it
// crosses gets verified.
func SmokeTrace(seed uint64) Trace {
	rng := splitmix64(seed)
	tr := Trace{Name: "smoke", Threads: 2}
	add := tr.add
	sizes := []uint64{64, 112, 256, 768, 2048}

	// Publish roots 0..15 with markers.
	for s := 0; s < 16; s++ {
		add(Op{Kind: OpMallocTo, Slot: s, Size: sizes[s%len(sizes)]})
	}
	// Seeded anonymous churn.
	var live []int
	for i := 0; i < 80; i++ {
		if len(live) == 0 || rng.next()%100 < 60 {
			live = append(live, add(Op{Kind: OpMalloc, Size: 64 + rng.next()%960}))
		} else {
			j := int(rng.next() % uint64(len(live)))
			add(Op{Kind: OpFree, Ref: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	// Republish a few roots (FreeFrom then MallocTo on the same slot).
	for s := 0; s < 6; s++ {
		add(Op{Kind: OpFreeFrom, Slot: s})
		add(Op{Kind: OpMallocTo, Slot: s, Size: sizes[(s+2)%len(sizes)]})
	}
	// Large extents: published and churned, driving the bookkeeping log
	// (and its slow GC, given the smoke targets' low threshold).
	add(Op{Kind: OpMallocTo, Slot: 30, Size: 64 << 10})
	add(Op{Kind: OpMallocTo, Slot: 31, Size: 96 << 10})
	add(Op{Kind: OpFreeFrom, Slot: 30})
	add(Op{Kind: OpMallocTo, Slot: 30, Size: 128 << 10})
	for i := 0; i < 8; i++ {
		r := add(Op{Kind: OpMalloc, Size: 64 << 10})
		add(Op{Kind: OpFree, Ref: r})
	}
	// Remote frees: thread 0 allocates, thread 1 (second arena) frees —
	// buffered — then drains explicitly.
	var remote []int
	for i := 0; i < 20; i++ {
		remote = append(remote, add(Op{Kind: OpMalloc, Size: 256}))
	}
	for _, r := range remote {
		add(Op{Kind: OpFree, Thread: 1, Ref: r})
	}
	add(Op{Kind: OpFlush, Thread: 1})
	// Tail publishes: boundaries right before shutdown.
	for s := 40; s < 44; s++ {
		add(Op{Kind: OpMallocTo, Slot: s, Size: sizes[s%len(sizes)]})
	}
	return tr
}

// FenceElisionTrace is the trace family dedicated to the LOG variant's
// merged post-commit fences. The hot paths close a WAL-entry flush and
// the bitmap-bit flush it covers with ONE trailing fence instead of two
// (mallocSmall, freeSmall), and the remote-free drain closes a whole
// batch of entry flushes plus bit clears with a single fence. Each
// elision widens the window in which a crash can separate the entry from
// its bit — safe only because durability still follows flush order and
// replay is idempotent — so this family concentrates boundaries inside
// exactly those windows:
//
//   - cold-start and post-exhaustion mallocs drive the refill path,
//     whose first block's WAL append + bitmap commit share the refill's
//     single fence (fillAndCommit);
//   - steady-state malloc/free churn in several size classes lands
//     boundaries between every {entry flush, bit flush, fence} triple,
//     across distinct bitmap stripes;
//   - tcache overflow runs the magazine eviction (fence-free by design:
//     pure reservation movement) followed by more merged-fence frees;
//   - a cross-arena free burst one short of the auto-drain threshold,
//     then one past it, then an explicit flush, brackets the batched
//     drain (one fence for up to 16 entries + clears) at both ends;
//   - root republishes interleave so the oracle tracks surviving
//     publishes across every window.
//
// Verified with a Config.TornSeed, every boundary also gets torn variants of
// the in-flight line, so partially persisted WAL entries (wal-entry) and
// bitmap words (bitmap-stripe) are both recovered from, not just clean
// prefixes.
func FenceElisionTrace(seed uint64) Trace {
	rng := splitmix64(seed)
	tr := Trace{Name: "fence-elision", Threads: 2}
	add := tr.add
	// Three small classes spread commits across bitmap stripes and slab
	// geometries without inflating the boundary count.
	sizes := []uint64{64, 192, 512}

	// Roots first: the oracle needs durable publishes on both threads
	// before churn starts (thread 1 binds the second arena).
	for s := 0; s < 4; s++ {
		add(Op{Kind: OpMallocTo, Thread: s % 2, Slot: s, Size: sizes[s%len(sizes)]})
	}

	// Cold refills + steady churn: the first malloc of each class runs
	// fillAndCommit; the rest exercise the per-op merged fence. Frees of
	// every third block put merged-fence frees (and, past tcache
	// capacity, magazine evictions) between the mallocs.
	var live []int
	for i := 0; i < 36; i++ {
		live = append(live, add(Op{Kind: OpMalloc, Size: sizes[i%len(sizes)]}))
		if i%3 == 2 {
			j := int(rng.next() % uint64(len(live)))
			add(Op{Kind: OpFree, Ref: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}

	// Republish under churn: root-slot windows interleaved with the
	// merged-fence windows above.
	for s := 0; s < 2; s++ {
		add(Op{Kind: OpFreeFrom, Slot: s})
		add(Op{Kind: OpMallocTo, Slot: s, Size: sizes[(s+1)%len(sizes)]})
	}

	// Cross-arena frees from thread 1: 15 buffered (one short of the
	// drain batch), a 16th that trips the automatic drain mid-trace, a
	// few more, then an explicit flush draining the remainder. Two drain
	// windows, each a WAL batch + bit-clear batch under one fence.
	var remote []int
	for i := 0; i < 20; i++ {
		remote = append(remote, add(Op{Kind: OpMalloc, Size: 64}))
	}
	for _, r := range remote {
		add(Op{Kind: OpFree, Thread: 1, Ref: r})
	}
	add(Op{Kind: OpFlush, Thread: 1})

	// Drain the per-class tcaches back through the merged-fence free path
	// so close-time boundaries still sit inside elision windows.
	for _, r := range live {
		add(Op{Kind: OpFree, Ref: r})
	}
	// Tail publish: a durable root right before shutdown.
	add(Op{Kind: OpMallocTo, Slot: 8, Size: 256})
	return tr
}

// SweepTrace is the publish-heavy mix crash sweeps have always run, n steps
// long: two publishes in five steps, cycling through every root slot (a
// publish over an occupied slot abandons the old block), a retraction three
// slots ahead of the cursor, an anonymous allocation that is never freed,
// and a 64 KiB publication every 25th step. 400 steps are short enough to
// cut at every boundary; the deep family runs 4 000 and strides.
func SweepTrace(n int) Trace {
	tr := Trace{Name: "sweep", Threads: 1}
	sizes := []uint64{64, 96, 160, 224, 288}
	slot := 0
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0, 1:
			tr.add(Op{Kind: OpMallocTo, Slot: slot % alloc.NumRootSlots, Size: sizes[i%len(sizes)]})
			slot++
		case 2:
			tr.add(Op{Kind: OpFreeFrom, Slot: (slot + 3) % alloc.NumRootSlots})
		case 3:
			tr.add(Op{Kind: OpMalloc, Size: 128})
		case 4:
			if i%25 == 4 {
				tr.add(Op{Kind: OpMallocTo, Slot: slot % alloc.NumRootSlots, Size: 64 << 10})
				slot++
			}
		}
	}
	return tr
}

// WorkloadTrace generates a seeded random operation mix of length n over
// two thread handles: the fuzzing front end of the model checker. Every
// trace it returns is valid (slots publish-before-free, blocks free at
// most once) for any seed.
func WorkloadTrace(seed uint64, n int) Trace {
	rng := splitmix64(seed)
	tr := Trace{Name: fmt.Sprintf("workload-%#x", seed), Threads: 2}
	add := tr.add
	const slots = 24
	occupied := make([]bool, slots)
	var live []int
	for i := 0; i < n; i++ {
		th := int(rng.next() % 2)
		switch rng.next() % 10 {
		case 0, 1, 2: // publish a free slot
			s := int(rng.next() % slots)
			for j := 0; j < slots && occupied[s]; j++ {
				s = (s + 1) % slots
			}
			if occupied[s] {
				break
			}
			size := 64 + rng.next()%2000
			if rng.next()%16 == 0 {
				size = 64 << 10
			}
			add(Op{Kind: OpMallocTo, Thread: th, Slot: s, Size: size})
			occupied[s] = true
		case 3: // unpublish an occupied slot
			s := int(rng.next() % slots)
			for j := 0; j < slots && !occupied[s]; j++ {
				s = (s + 1) % slots
			}
			if !occupied[s] {
				break
			}
			add(Op{Kind: OpFreeFrom, Thread: th, Slot: s})
			occupied[s] = false
		case 4, 5, 6: // anonymous allocation
			live = append(live, add(Op{Kind: OpMalloc, Thread: th, Size: 64 + rng.next()%960}))
		case 7, 8: // free a live anonymous block, possibly cross-arena
			if len(live) == 0 {
				break
			}
			j := int(rng.next() % uint64(len(live)))
			add(Op{Kind: OpFree, Thread: th, Ref: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case 9:
			add(Op{Kind: OpFlush, Thread: th})
		}
	}
	return tr
}
