package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nvalloc/internal/blog"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
	"nvalloc/internal/walog"
)

// validateSuper checks the superblock before any of its fields are
// trusted: magic, checksum, version, parameter ranges and the region
// layout. A zeroed, truncated or bit-flipped image yields a typed
// CorruptError here instead of a panic (or an absurd allocation) later,
// an intact heap of another format version a *pmem.FormatError.
func validateSuper(dev pmem.Dev) error {
	if dev.Size() < uint64(superBase)+4096 {
		return pmem.Corrupt("superblock", superBase, "device too small (%d bytes) for a superblock page", dev.Size())
	}
	if m := dev.ReadU64(superBase + sbMagic); m != superMagic {
		return pmem.Corrupt("superblock", superBase+sbMagic, "bad magic %#x (no heap on device)", m)
	}
	if got, want := dev.ReadU64(superBase+sbChecksum), uint64(superCRC(dev)); got != want {
		return pmem.Corrupt("superblock", superBase+sbChecksum, "checksum %#x, want %#x", got, want)
	}
	// After the checksum: a flipped version bit is corruption, an intact
	// superblock of another version is a heap some other build wrote.
	if v := dev.ReadU64(superBase + sbVersion); v != superVersion {
		return &pmem.FormatError{Component: "core", Version: v, Want: superVersion}
	}
	arenas := dev.ReadU64(superBase + sbArenas)
	stripes := dev.ReadU64(superBase + sbStripes)
	variant := dev.ReadU64(superBase + sbVariant)
	bookMode := dev.ReadU64(superBase + sbBookMode)
	walEnts := dev.ReadU64(superBase + sbWALEnts)
	walStripes := dev.ReadU64(superBase + sbWALStripes)
	switch {
	case arenas < 1 || arenas > 1024:
		return pmem.Corrupt("superblock", superBase+sbArenas, "arena count %d out of range", arenas)
	case stripes < 1 || stripes > 64:
		return pmem.Corrupt("superblock", superBase+sbStripes, "stripe count %d out of range", stripes)
	case variant > uint64(IC):
		return pmem.Corrupt("superblock", superBase+sbVariant, "unknown variant %d", variant)
	case bookMode > 1:
		return pmem.Corrupt("superblock", superBase+sbBookMode, "unknown bookkeeping mode %d", bookMode)
	case walEnts < MinWALEntries || walEnts > 1<<20:
		return pmem.Corrupt("superblock", superBase+sbWALEnts, "WAL ring capacity %d out of range", walEnts)
	case walStripes < 1 || walStripes > 64:
		return pmem.Corrupt("superblock", superBase+sbWALStripes, "WAL stripe count %d out of range", walStripes)
	}
	walBase := dev.ReadU64(superBase + sbWALBase)
	blogBase := dev.ReadU64(superBase + sbBlogBase)
	blogSize := dev.ReadU64(superBase + sbBlogSize)
	heapBase := dev.ReadU64(superBase + sbHeapBase)
	walBytes := arenas * uint64(walog.RegionSize(int(walEnts), int(stripes)))
	switch {
	case walBase < uint64(superBase)+4096 || walBase%8 != 0 || walBase+walBytes > blogBase:
		return pmem.Corrupt("superblock", superBase+sbWALBase, "WAL region [%#x,%#x) overlaps neighbours", walBase, walBase+walBytes)
	case bookMode == 1 && blogBase+blogSize > heapBase:
		return pmem.Corrupt("superblock", superBase+sbBlogBase, "bookkeeping-log region [%#x,%#x) overlaps the heap", blogBase, blogBase+blogSize)
	case heapBase%extent.LeaseAlign != 0 || heapBase+extent.ChunkSize > dev.Size():
		return pmem.Corrupt("superblock", superBase+sbHeapBase, "heap base %#x misaligned or past device end", heapBase)
	}
	return nil
}

// Recovery is what one Open did, phase by phase in the order it ran them.
// The *NS fields but SlabWorkNS and WALWorkNS are virtual nanoseconds of
// Open's own context and add up to the figure Open returns (reading the
// bookkeeping log back is charged to a context of the log's own and
// appears in none). The two *WorkNS fields sum their phase's per-arena
// reads where SlabNS and WALNS count the longest of them.
type Recovery struct {
	// Crashed: the previous session did not Close; the variant's failure
	// recovery (WAL replay for LOG, conservative GC for GC) ran.
	Crashed bool

	BookLogNS int64 // bookkeeping-log GC policy, or the in-place header scan
	ExtentNS  int64 // free lists from the gaps between the live records (a record is indexed when a free first needs it)
	SlabNS    int64 // slab headers, morph undo and slab_in index tables: the span, the arenas' headers being read in parallel
	WALNS     int64 // ring scans (the span, the rings being read in parallel), replay, write-back and checkpoints (or the GC variant's mark and sweep), with the bitmaps they build
	StateNS   int64 // the two run-state word commits

	// SlabWorkNS is the slab phase's work: every arena's header reads plus
	// the repairs, summed. It is SlabNS had the phase run serially.
	SlabWorkNS int64
	// WALWorkNS is the WAL phase's work: every ring's scan plus what
	// follows them on Open's context (apply, write-back, checkpoints, or
	// the GC variant's mark and sweep), summed.
	WALWorkNS int64

	LogCompacted     bool // the bookkeeping log was over its slow-GC threshold: Open compacted it, or began to
	SlabsOpened      int  // slab headers read
	BitmapsBuilt     int  // of those, slabs whose bitmap recovery read: the ones whose persisted bits replay found at odds with its log, or the GC sweep touched
	BitsChecked      int  // kept blocks replay checked at their bitmap byte on a slab not yet built (charged up to Blocks/8 per slab)
	ExtentsIndexed   int  // live records Open gave an entry: the extents replay's last publish or the GC sweep freed
	EntriesReplayed  int  // live WAL entries the ring scans returned
	EntriesRetired   int  // of those, dropped unapplied: voided by a later slab release, or all of them after a crash inside Close
	LinesWrittenBack int  // bitmap lines flushed ahead of the rings' checkpoints

	// Wall is the same phases in wall-clock time. It varies run to run, so
	// nothing that must repeat compares it.
	Wall RecoveryWall
}

// RecoveryWall is the wall-clock time of each phase of one Open. They add
// up to the whole of Open: State also holds the superblock validation and
// the volatile set-up that precede the first state commit.
type RecoveryWall struct {
	BookLog, Extent, Slab, WAL, State time.Duration
}

// Total is the wall-clock time Open took.
func (w RecoveryWall) Total() time.Duration {
	return w.BookLog + w.Extent + w.Slab + w.WAL + w.State
}

// TotalNS is the recovery's virtual time: what Open returned.
func (r Recovery) TotalNS() int64 {
	return r.BookLogNS + r.ExtentNS + r.SlabNS + r.WALNS + r.StateNS
}

func (r Recovery) String() string {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	w := r.Wall
	return fmt.Sprintf("%.1f us virtual (book log %.1f, extents %.1f, slabs %.1f of %.1f work, wal %.1f of %.1f work, state %.1f); "+
		"%.2f ms wall (book log %.2f, extents %.2f, slabs %.2f, wal %.2f, state %.2f); "+
		"crashed=%v, log compacted=%v, %d slabs opened, %d bitmaps built, %d bits checked, %d extents indexed, %d wal entries (%d retired), %d lines written back",
		us(r.TotalNS()), us(r.BookLogNS), us(r.ExtentNS), us(r.SlabNS), us(r.SlabWorkNS), us(r.WALNS), us(r.WALWorkNS), us(r.StateNS),
		ms(w.Total()), ms(w.BookLog), ms(w.Extent), ms(w.Slab), ms(w.WAL), ms(w.State),
		r.Crashed, r.LogCompacted, r.SlabsOpened, r.BitmapsBuilt, r.BitsChecked, r.ExtentsIndexed, r.EntriesReplayed, r.EntriesRetired, r.LinesWrittenBack)
}

// Recovery reports what the Open that produced this heap did. It is the
// zero value on a heap Create formatted.
func (h *Heap) Recovery() Recovery { return h.recovery }

// Open reopens an existing heap after a restart or crash (Section 4.4).
// It does each recovery job once: reopen the bookkeeping log and run its
// GC policy, rebuild the extent free lists from the gaps between the live
// records, open every slab's header (one arena's share per worker, morph
// undo inside slab.Open), reopen the WAL rings and, if the persisted state
// word shows the previous run did not shut down cleanly, resolve leaks per
// the variant's consistency model: one scan of each ring's live window
// (one ring per worker) and a replay for NVAlloc-LOG, conservative GC for
// NVAlloc-GC. A slab's bitmap is read, and a live record gets its extent
// entry, the first time something needs it: replay or the sweep here, an
// allocation or a free later. It returns the recovery's virtual
// nanoseconds; Heap.Recovery breaks them down.
func Open(dev pmem.Dev, opts Options) (*Heap, int64, error) {
	wallStart := time.Now()
	if err := validateSuper(dev); err != nil {
		return nil, 0, err
	}
	opts = opts.withDefaults()
	// Persistent layout parameters override whatever the caller passed.
	opts.Arenas = int(dev.ReadU64(superBase + sbArenas))
	opts.Stripes = int(dev.ReadU64(superBase + sbStripes))
	opts.Variant = Variant(dev.ReadU64(superBase + sbVariant))
	opts.LogBookkeeping = dev.ReadU64(superBase+sbBookMode) == 1
	opts.WALEntries = int(dev.ReadU64(superBase + sbWALEnts))

	h := &Heap{dev: dev, mem: dev.Mem(), opts: opts}
	h.heapBase = pmem.PAddr(dev.ReadU64(superBase + sbHeapBase))
	// Slabs carry their own stripe counts and tcaches are volatile, so a
	// reopened heap takes its variant's layout whatever it was created
	// with; the WAL rings and the bookkeeping log are read as written.
	lay := opts.layout()
	lay.WAL = int(dev.ReadU64(superBase + sbWALStripes))
	h.initVolatile(dev, opts, lay)

	// A reopen is a new session: its contexts start at virtual time 0 and
	// must not queue behind the bank load the previous session left.
	dev.ResetTimeline()
	c := dev.NewCtx()
	// lap closes a phase: it adds the virtual and the wall-clock time since
	// the previous lap to the phase's fields.
	var lapped int64
	lap := func(ns *int64, wall *time.Duration) {
		*ns += c.Now - lapped
		lapped = c.Now
		now := time.Now()
		*wall += now.Sub(wallStart)
		wallStart = now
	}
	rep := &h.recovery
	state, ok := pmem.UnsealU64(dev.ReadU64(superBase + sbState))
	if !ok {
		return nil, 0, pmem.Corrupt("superblock", superBase+sbState, "run-state word fails seal check")
	}
	crashed := state != stateShutdown
	closing := state == stateClosing
	rep.Crashed = crashed
	// Mark recovery in progress so a crash *during* recovery is detected.
	// A closing-state crash keeps its marker instead: recovery from it is
	// idempotent, and downgrading to stateRecovery would re-arm WAL replay
	// on a second crash — exactly the unsafe path the marker forbids.
	if !closing {
		c.PersistU64(pmem.CatMeta, superBase+sbState, pmem.SealU64(stateRecovery))
		c.Fence()
	}
	lap(&rep.StateNS, &rep.Wall.State)

	// Reopen the bookkeeper and enumerate live extents.
	var records []extent.LiveRecord
	if opts.LogBookkeeping {
		bl, recs, err := blog.Open(dev, h.blogBase(), h.blogSize(), h.lay.WAL)
		if err != nil {
			return nil, 0, err
		}
		if opts.BlogGCThreshold > 0 {
			bl.SlowGCThreshold = opts.BlogGCThreshold
		}
		// The paper compacts the log at every open (Section 4.4). Here the
		// log is compacted only when it is over its threshold, which is
		// when its next free would have begun the same compaction:
		// tombstones come only from frees, and every free runs this
		// policy, so the log stays bounded without an unconditional
		// rewrite at open.
		rep.LogCompacted = bl.OpenGC(c)
		h.blog = bl
		h.book = bl
		for _, r := range recs {
			records = append(records, extent.LiveRecord{Addr: r.Addr, Size: r.Size, Slab: r.Slab})
		}
	} else {
		ib := extent.NewInPlace(dev, h.heapBase, superBase+sbBreak)
		h.book = ib
		records = ib.Recover(c)
	}
	lap(&rep.BookLogNS, &rep.Wall.BookLog)

	// Rebuild the large allocator (gaps become reclaimed extents; a record
	// gets its entry when a free first needs it). Slab caches and shard
	// pools start empty: leases and cached extents never survive a restart.
	// Unrecorded space is rebuilt as free, recorded shard sub-allocations as
	// ordinary global extents.
	large, records, err := extent.Rebuild(dev, h.book, h.extentConfig(), opts.extentTiers(), c, records)
	if err != nil {
		return nil, 0, err
	}
	h.large = large
	h.serveLog()
	lap(&rep.ExtentNS, &rep.Wall.Extent)

	if err := h.openSlabs(c, records, rep); err != nil {
		return nil, 0, err
	}
	lap(&rep.SlabNS, &rep.Wall.Slab)

	// Reopen the WALs.
	for i := range h.arenas {
		wal, err := h.newWAL(i)
		if err != nil {
			return nil, 0, err
		}
		h.arenas[i].wal = wal
	}

	if crashed {
		switch opts.Variant {
		case LOG:
			rings, err := h.scanRings(c, rep)
			if err != nil {
				return nil, 0, err
			}
			if closing {
				// The crash hit Close's checkpoint window: every logged
				// operation already persisted in full before Close began, so
				// the surviving entries are retired unapplied. The scan still
				// CRC-validated each ring's live window and advanced each
				// log's sequence, so the checkpoint lands past them.
				for i, a := range h.arenas {
					rep.EntriesRetired += len(rings[i])
					a.wal.Checkpoint(c)
				}
			} else {
				h.replayWALs(c, rings, rep)
			}
		case GC:
			if err := h.conservativeGC(c); err != nil {
				return nil, 0, err
			}
		case IC:
			// Internal collection: the eagerly persisted bitmaps are the
			// truth; crash-time leaks stay allocated until the application
			// walks Heap.Objects and frees what it does not recognize.
		}
	}

	// A ring is in service if it was ever appended to: Close and replay
	// leave its checkpoint above 0. Rings of arenas no thread ever bound
	// stay out of Used until their first append.
	for _, a := range h.arenas {
		if a.wal.InService() {
			h.ringInService()
		}
	}

	lap(&rep.WALNS, &rep.Wall.WAL)
	rep.WALWorkNS += rep.WALNS
	rep.ExtentsIndexed = large.Indexed()

	// Back in business.
	c.PersistU64(pmem.CatMeta, superBase+sbState, pmem.SealU64(stateRunning))
	c.Fence()
	lap(&rep.StateNS, &rep.Wall.State)
	ns := c.Now
	c.Merge()
	return h, ns, nil
}

// forkArenas runs fn once per arena, each on a context of its own that
// starts at c's clock, by min(GOMAXPROCS, arenas) goroutines. Forking and
// joining them charges nothing, and c resumes at the latest arena's clock,
// so the virtual time depends on neither the worker count nor the
// goroutine order. The arena contexts' statistics merge into the device.
// It returns the work: every arena's time, summed. fn may only read the
// device and write what belongs to its arena: whatever writes persistent
// state runs after the join, on c, in an order of its own.
func (h *Heap) forkArenas(c *pmem.Ctx, fn func(a int, ac *pmem.Ctx)) (work int64) {
	n := len(h.arenas)
	start := c.Now
	clocks := make([]*pmem.Ctx, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := w; a < n; a += workers {
				ac := h.dev.NewCtx()
				ac.Now = start
				clocks[a] = ac
				fn(a, ac)
			}
		}()
	}
	wg.Wait()
	for _, ac := range clocks {
		work += ac.Now - start
		c.Now = max(c.Now, ac.Now)
		ac.Merge()
	}
	return work
}

// openSlabs opens the header of every slab record, one partition per
// arena: arena a owns the slab records whose position among them is ≡ a
// mod arenas, and each partition is read on its arena's context
// (forkArenas). The partitions only read (slab.Inspect). Everything that
// writes runs after the join on c, in address order — the repairs
// slab.Open makes (morph undo, a pending demotion) and the freelist and
// LRU pushes — so the flushes, their order and the list order are those
// of one serial pass, and so is the error: the first bad header in
// address order.
//
// Every slab goes on its class freelist unread, so a full one is listed
// until something builds it: recovery's own touches take it off at once
// (recoveryBuild), any other falls out of fillLocked's full branch. The
// order of the slabs with room is the one an eager load gives.
func (h *Heap) openSlabs(c *pmem.Ctx, records []extent.LiveRecord, rep *Recovery) error {
	var slabs []extent.LiveRecord
	for _, r := range records {
		if r.Slab {
			slabs = append(slabs, r)
		}
	}
	type header struct {
		s   *slab.Slab // nil: slab.Open must repair it (or err is set)
		err error
	}
	heads := make([]header, len(slabs))
	n := len(h.arenas)
	rep.SlabWorkNS += h.forkArenas(c, func(a int, ac *pmem.Ctx) {
		// A partition stops at its first bad header: the serial pass
		// returns there before it reaches any slab after it.
		for i := a; i < len(slabs); i += n {
			if heads[i].s, heads[i].err = inspectSlab(h.mem, ac, slabs[i]); heads[i].err != nil {
				break
			}
		}
	})

	for i, r := range slabs {
		s, err := heads[i].s, heads[i].err
		if err == nil && s == nil {
			before := c.Now
			s, err = slab.Open(h.mem, c, r.Addr)
			rep.SlabWorkNS += c.Now - before
		}
		if err != nil {
			return err
		}
		s.Owner = i % n
		h.slabs.Store(r.Addr, s)
		a := h.arenas[s.Owner]
		a.freelistPush(s)
		if !s.IsSlabIn() {
			a.lruPushTail(s)
		}
	}
	rep.SlabsOpened = len(slabs)
	return nil
}

// inspectSlab reads the header of slab record r (slab.Inspect). A record
// flagged as a slab must have slab shape before its header is interpreted;
// the record (not the slab) is then at fault, so the error names the
// bookkeeping layer.
func inspectSlab(mem pmem.Mem, c *pmem.Ctx, r extent.LiveRecord) (*slab.Slab, error) {
	if uint64(r.Addr)%slab.Size != 0 || r.Size != slab.Size {
		return nil, pmem.Corrupt("extent", r.Addr, "slab record misaligned or sized %d, want %d", r.Size, uint64(slab.Size))
	}
	return slab.Inspect(mem, c, r.Addr)
}

// scanRings reads every WAL ring's live window (walog.Replay), one ring
// per arena context (forkArenas), and returns each ring's live entries. A
// scan reads and CRC-checks, and it flushes nothing, so only the scans
// run in parallel: what acts on the entries runs after the join, on c, in
// arena order. Every ring is scanned before anything is applied, so a
// damaged ring fails the open with the heap as the crash left it, and the
// error is the first damaged ring's in arena order, as a serial scan
// would return.
func (h *Heap) scanRings(c *pmem.Ctx, rep *Recovery) ([][]walog.Entry, error) {
	rings := make([][]walog.Entry, len(h.arenas))
	errs := make([]error, len(h.arenas))
	start := c.Now
	work := h.forkArenas(c, func(a int, ac *pmem.Ctx) {
		rings[a], errs[a] = h.arenas[a].wal.Replay(ac)
	})
	// The scans' work past their span; Open adds the phase's own time.
	rep.WALWorkNS += work - (c.Now - start)
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		rep.EntriesReplayed += len(rings[i])
	}
	return rings, nil
}

// replayWALs applies every un-checkpointed WAL entry idempotently
// (NVAlloc-LOG failure recovery, "replay WALs as in nvm_malloc"), ring by
// ring in arena order. That order is enough because every bit change of a
// block is logged in the ring of the arena that owned its slab
// (arena.commit, Thread.Publish), so the last entry naming a block is also
// the latest. Entry payloads are CRC-protected, but the 24-bit checksum is
// thin, so every address acted on is bounds-checked against the device
// first.
//
// Each ring is replayed in two passes. The first walks the entries in
// sequence order and keeps, per block, only the state the last one wants
// (wantedBits); it runs the old-class frees (FreeOldBlock) in place, which
// commute with the kept states: a new-class entry for a block cannot exist
// while an old-class block pins it. The second brings the kept states
// about in that order (forceBit), and builds a slab's bitmap only where
// its persisted bits disagree with them.
func (h *Heap) replayWALs(c *pmem.Ctx, rings [][]walog.Entry, rep *Recovery) {
	// Bits are applied to the cache image and their lines listed on the
	// replaying arena (slab ownership was just reassigned, so it is the
	// ring, not the owner, that covers them); the write-back ahead of the
	// ring's checkpoint then persists each distinct line once.
	for i, a := range h.arenas {
		ents := rings[i]
		// void maps a slab base to the sequence number up to which the
		// ring's entries naming its blocks are dead. An OpRetire voids them
		// because the slab was released, and whatever sits at that base now
		// belongs to a later owner. An OpMorph whose target class the slab
		// has voids them because the morph completed: its step-3 bitmap and
		// index table were built from the volatile truth, which had every
		// earlier operation in it. The class tag alone does not say so for
		// a publish entry's old block — freed before the morph, or freed
		// after it through the index table, it carries the same old class —
		// and re-running the earlier free would release a block that was
		// allocated again in between and that the morph carried over as
		// live. An OpMorph for another class is a morph that was undone (or
		// one of an earlier incarnation): the entries around it stand.
		void := map[pmem.PAddr]uint64{}
		for _, e := range ents {
			switch e.Op {
			case walog.OpRetire:
				void[e.Addr] = e.Seq
			case walog.OpMorph:
				if s := h.slabs.Lookup(e.Addr); s != nil && int(e.Aux) == s.Class {
					void[e.Addr] = e.Seq
				}
			}
		}
		want := wantedBits{at: map[blockKey]int{}}
		for k, e := range ents {
			switch e.Op {
			case walog.OpAllocBit, walog.OpFreeBit:
				if e.Seq <= void[e.Addr] {
					rep.EntriesRetired++
					continue
				}
				// Aux2 names the size class the entry was logged under; a
				// mismatch means the slab has since completed a morph whose
				// OpMorph entry the checkpoint has passed — applying the
				// stale index to the new geometry would flip an unrelated
				// block.
				if s := h.slabs.Lookup(e.Addr); s != nil && int(e.Aux2) == s.Class && e.Aux < uint64(s.Blocks) {
					want.set(s, int(e.Aux), e.Op == walog.OpAllocBit)
				}
			case walog.OpPublish:
				h.replayPublish(c, a, e, k == len(ents)-1, void, &want)
			case walog.OpMorph:
				// Morph steps are sealed by the slab's own flag field;
				// slab.Open already undid or kept the transform.
			}
		}
		for _, b := range want.bits {
			h.forceBit(c, b.s, b.idx, b.val, a)
		}
		// Checkpoint's CatMeta flushes are the write-back's bitmap lines;
		// its own word is a CatWAL flush.
		lines := c.Local().CatFlush[pmem.CatMeta]
		a.wal.Checkpoint(c)
		rep.LinesWrittenBack += int(c.Local().CatFlush[pmem.CatMeta] - lines)
	}
}

// wantedBits is one ring's replay collected: the state the ring's last
// live entry naming each block wants it in, the blocks in the order they
// first appear (never in map order, so the replay repeats bit for bit).
type wantedBits struct {
	bits []wantedBit
	at   map[blockKey]int // position in bits
}

type blockKey struct {
	s   *slab.Slab
	idx int
}

type wantedBit struct {
	blockKey
	val bool
}

// set records that block idx of s must end in state val, replacing what
// an earlier entry wanted of it.
func (w *wantedBits) set(s *slab.Slab, idx int, val bool) {
	ref := blockKey{s, idx}
	if i, ok := w.at[ref]; ok {
		w.bits[i].val = val
		return
	}
	w.at[ref] = len(w.bits)
	w.bits = append(w.bits, wantedBit{ref, val})
}

// replayPublish completes or drops one OpPublish entry of ring a. Publish
// holds the arena resource from its append to its last bit, so every entry
// a ring holds except its last is known to have run to completion and its
// bits are wanted like a bit entry's. The last one may have been cut
// anywhere, and the slot word decides: if it holds new, the slot persist
// happened and the publish is completed; otherwise the publish was never
// acknowledged and nothing of it is applied.
//
// An extent is acted on only through the ring's last entry. Publish moves
// the checkpoint past an entry that names one before it returns, so such
// an entry is replayed only with its publish in flight — which is what
// makes it safe to free by address: the space cannot have been reused.
func (h *Heap) replayPublish(c *pmem.Ctx, a *arena, e walog.Entry, last bool, void map[pmem.PAddr]uint64, want *wantedBits) {
	slot, new, old := e.Addr, pmem.PAddr(e.Aux), e.Old
	newTag, oldTag := int(e.Aux2>>8), int(e.Aux2&0xFF)
	if uint64(slot)+8 > h.dev.Size() {
		return
	}
	done := !last || pmem.PAddr(h.dev.ReadU64(slot)) == new
	small := func(p pmem.PAddr, tag int, val bool) {
		if tag == 0 || tag == tagLarge {
			return
		}
		if s := h.slabs.Lookup(p &^ (slab.Size - 1)); s != nil && e.Seq > void[s.Base] {
			h.replayBit(c, s, p, tag-1, val, want)
		}
	}
	if done {
		small(new, newTag, true)
		small(old, oldTag, false)
	}
	if !last {
		return
	}
	// new's record precedes the slot persist and old's tombstone follows
	// it: a completed publish may still owe the tombstone, a dropped one
	// may have left the record.
	owed, tag := new, newTag
	if done {
		owed, tag = old, oldTag
	}
	if tag == tagLarge {
		// An extent the replayed half already freed is unknown by now; a
		// bookkeeper failure leaves it allocated: a leak, as before the
		// replay.
		_ = h.large.Free(c, a.index, owed, false)
	}
}

// replayBit wants the block at p of slab s, which a publish entry named by
// address, in state val. class is the size class p was a block of when the
// entry was logged; as for a bit entry, a slab that has since morphed away
// from it is left alone — unless p is one of the morph's surviving
// old-class blocks, whose free goes to the index table at once: the caller
// has established that the entry was logged after that morph (replayWALs,
// void).
func (h *Heap) replayBit(c *pmem.Ctx, s *slab.Slab, p pmem.PAddr, class int, val bool, want *wantedBits) {
	if !val && s.OldClass == class {
		if oi := s.OldBlockIndex(p); oi >= 0 {
			h.recoveryBuild(c, s)
			_, _ = s.FreeOldBlock(c, oi, true) // cannot fail: oi was just resolved
			h.relist(s)
			return
		}
	}
	if s.Class != class {
		return
	}
	if idx := s.BlockIndex(p); idx >= 0 {
		want.set(s, idx, val)
	}
}

// forceBit sets the allocation state of a slab block to val regardless of
// its current state (idempotent), in the cache image: the bit's line is
// listed on wb for write-back (arena.writeBack), which recovery runs once
// the whole group of bits is written — ahead of a ring's checkpoint after
// WAL replay, at the end of the GC variant's sweep — so each distinct line
// is flushed once, however many of its bits changed.
//
// A slab not yet built is first checked at the one bitmap byte that holds
// the block (slab.PersistedAllocated, charged as Build charges): while
// every block forced there already reads as wanted, nothing changes and
// the slab stays unbuilt for its first use to build. The first block that
// does not builds it. The GC variant's sweep builds every slab first, so
// it checks nothing.
func (h *Heap) forceBit(c *pmem.Ctx, s *slab.Slab, idx int, val bool, wb *arena) {
	if !s.Built() {
		h.recovery.BitsChecked++
		if s.PersistedAllocated(c, idx) == val {
			return
		}
	}
	h.recoveryBuild(c, s)
	if val == s.BlockAllocated(idx) {
		return
	}
	wb.noteDirty(s, idx)
	if val {
		s.AllocBlock(c, idx, false)
	} else {
		s.FreeBlock(c, idx, false)
	}
	h.relist(s)
}

// recoveryBuild is recovery's first touch of a slab (WAL replay, the GC
// variant's sweep): it builds the bitmap on Open's context and counts it.
// Open listed the slab on its freelist unread, and one that turns out full
// leaves the list here, where an eager load would have left it off.
// Recovery runs before any thread exists, so it may edit the freelist of
// an arena it does not hold.
func (h *Heap) recoveryBuild(c *pmem.Ctx, s *slab.Slab) {
	if s.Built() {
		return
	}
	s.Build(c)
	h.recovery.BitmapsBuilt++
	h.relist(s)
}

// relist keeps a slab recovery built on its freelist exactly while it has
// a free block. Every recovery step that changes a built slab's bits calls
// it: replay or the GC sweep may fill a slab that had room when it was
// built, or free a block of one that was full.
func (h *Heap) relist(s *slab.Slab) {
	a := h.arenas[s.Owner]
	switch listed := a.onFreelist(s); {
	case listed && s.FreeCount() == 0:
		a.freelistRemove(s)
	case !listed && s.FreeCount() > 0:
		a.freelistPush(s)
	}
}
