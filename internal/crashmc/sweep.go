package crashmc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// Cut is the kind of crash a sweep takes at each boundary it visits.
type Cut int

const (
	// PowerCut recovers from the media image after the first k flushes —
	// stores no flush has reached are lost — and, when Config.TornSeed is
	// set, from that image plus a seeded subset of the words of flush k's
	// line.
	PowerCut Cut = iota
	// RecoveryCut is the double crash: take boundary k's image, cut power
	// again after every flush its recovery issues — state word, replayed
	// publishes, each line of a write-back, the checkpoint word of each
	// ring, a compacted chain's chunks and head pointer, the final flags —
	// and hold the second recovery to the oracle of boundary k.
	RecoveryCut
	// CacheCut kills the process instead: as flush k completes (the one
	// that takes the media from boundary k-1 to k) recover from a copy of
	// the cache image, which holds every store made so far, flushed or not,
	// in program order — what a page-cache-backed heap file keeps. Recovery
	// must cope with an image that is ahead of the media: bits written
	// under a WAL entry and not yet written back, a header rewritten and
	// not yet flushed, the stores of a commit group past its last flush.
	// The journal cannot reconstruct those images, so the (deterministic)
	// trace is run again and the image copied out at each chosen flush.
	// The oracle assumes what it assumes of the torn image at boundary
	// k-1: every operation that returned before the flush is complete, the
	// one issuing it is in flight, nothing later has begun.
	CacheCut
	// FlipCut is a power cut onto damaged media: boundary k's image (k at
	// or past CreatedAt — before it there is no superblock to name the
	// metadata) with 1–4 bits flipped in the written lines of the target's
	// MetaRanges, the count and the sites seeded by Config.TornSeed and k.
	// Flipped metadata may be unrecoverable, but then it must be detected:
	// recovery refusing the image with a typed pmem.ErrCorrupted counts as
	// Report.Detected, a panic is a violation, and an image that opens is
	// held to the oracle of a clean cut at k.
	FlipCut
)

var cutNames = [...]string{"power-cut", "recovery-crash", "cache-cut", "flip-cut"}

func (c Cut) String() string { return cutNames[c] }

// MarshalText and UnmarshalText write a cut by name, so that a repro
// artifact (WriteRepro) says what kind of crash made each image.
func (c Cut) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

func (c *Cut) UnmarshalText(text []byte) error {
	for i, name := range cutNames {
		if name == string(text) {
			*c = Cut(i)
			return nil
		}
	}
	return fmt.Errorf("crashmc: unknown kind of cut %q", text)
}

// Config parameterizes a sweep.
type Config struct {
	// From and To bound the boundary range a power-cut sweep without an
	// explicit boundary list visits, inclusive; To <= 0 means the last
	// boundary. Defaults cover the whole recording.
	From, To int
	// MaxBoundaries caps the boundaries a power-cut sweep takes, from that
	// range or from an explicit list, by striding over them (0 = every
	// one). Coverage drops below 100% accordingly.
	MaxBoundaries int
	// TornSeed seeds the torn-word masks and a flip cut's bit sites. When
	// it is nonzero a power-cut sweep also verifies, at every cut with a
	// flush in flight, the torn-line image where only a seeded subset of
	// the in-flight line's words persisted.
	TornSeed uint64
	// CheckEvery runs the target's offline consistency checker
	// (Target.Check) on every Nth power cut at or past CreatedAt
	// (0 = never). The checker opens a clone, so it sees the pristine
	// crash image.
	CheckEvery int
	// ProbeAllocs is the number of fresh allocations probed against the
	// surviving roots per image (default 64; < 0 disables).
	ProbeAllocs int
	// Pool executes fn(0..n-1) on a worker pool; nil runs serially. The
	// experiment engine's pool is injected here so crashmc does not
	// depend on internal/experiment.
	Pool func(n int, fn func(i int))
	// Extra, when non-nil, adds invariants to every recovered heap (a
	// family's oracle; duplicate-object walks).
	// torn says that flush `boundary` itself is partly applied, so the op
	// issuing it is in flight. Returned strings are violations.
	Extra func(h alloc.Heap, boundary int, torn bool) []string
}

func (cfg Config) withDefaults(rec *Recording) Config {
	last := rec.Boundaries() - 1
	if cfg.To <= 0 || cfg.To > last {
		cfg.To = last
	}
	cfg.From = max(cfg.From, 0)
	if cfg.ProbeAllocs == 0 {
		cfg.ProbeAllocs = 64
	}
	return cfg
}

// fanOut runs fn(0..n-1) on the Pool, or serially without one.
func (cfg Config) fanOut(n int, fn func(i int)) {
	if cfg.Pool == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	cfg.Pool(n, fn)
}

// boundaries lists From..To; strided thins a list to at most MaxBoundaries
// entries at the smallest stride that allows it.
func (cfg Config) boundaries() []int {
	ks := make([]int, 0, cfg.To-cfg.From+1)
	for k := cfg.From; k <= cfg.To; k++ {
		ks = append(ks, k)
	}
	return ks
}

func (cfg Config) strided(ks []int) []int {
	stride := 1
	for cfg.MaxBoundaries > 0 && (len(ks)-1)/stride+1 > cfg.MaxBoundaries {
		stride++
	}
	return Every(stride)(ks)
}

// sweep is one enumeration in progress: what every share of it reads.
type sweep struct {
	rec  *Recording
	cfg  Config
	cut  Cut
	ks   []int
	hist map[int][]slotOp
	cl   *classifier
}

// Sweep is the model checker's one driver: it takes cut at every boundary
// in ks, recovers from each image and holds the result to the oracle
// (verifyImage). A PowerCut sweep given no list (nil) takes the boundaries
// From..To, and thins what it takes to cfg.MaxBoundaries; the other cuts
// take exactly ks, and an empty list is an empty sweep. The boundaries are
// split into contiguous shares, one per worker of cfg.Pool, each with its
// own image cursor and scratch device: the whole enumeration costs one
// journal replay per share plus one image copy per recovery.
//
// Report.Explored counts the images verified (for RecoveryCut the
// (boundary, cut) pairs), Report.Boundaries how many there were to take:
// the range's size, len(ks), or for RecoveryCut the flushes of the
// recoveries cut into. A FlipCut sweep drops the boundaries of ks before
// CreatedAt first.
func Sweep(rec *Recording, cut Cut, ks []int, cfg Config) *Report {
	cfg = cfg.withDefaults(rec)
	if cut == PowerCut && ks == nil {
		ks = cfg.boundaries()
	}
	if cut == FlipCut {
		ks = slices.DeleteFunc(slices.Clone(ks), func(k int) bool { return k < rec.CreatedAt })
	}
	total := len(ks)
	if cut == PowerCut {
		ks = cfg.strided(ks)
	}
	s := &sweep{rec: rec, cfg: cfg, cut: cut, ks: ks, hist: slotHistory(rec), cl: newClassifier(rec)}
	visit := s.powerCuts
	switch cut {
	case RecoveryCut:
		visit = s.recoveryCuts
	case CacheCut:
		visit = s.cacheCuts
	case FlipCut:
		visit = s.flipCuts
	}
	nChunk := 1
	if cfg.Pool != nil {
		nChunk = max(1, min(runtime.GOMAXPROCS(0), len(ks)))
	}
	parts := make([]*Report, nChunk)
	run := func(ci int) {
		parts[ci] = newReport(rec.Target.Name, rec.Trace.Name, cut)
		if lo, hi := ci*len(ks)/nChunk, (ci+1)*len(ks)/nChunk; lo < hi {
			scratch := pmem.New(pmem.Config{Size: rec.DeviceBytes, Strict: cut == RecoveryCut})
			visit(parts[ci], scratch, lo, hi)
		}
	}
	cfg.fanOut(nChunk, run)
	report := newReport(rec.Target.Name, rec.Trace.Name, cut)
	for _, part := range parts {
		report.merge(part)
	}
	if cut != RecoveryCut {
		report.Boundaries = total
	}
	return report
}

// newCursor returns an image cursor at the recording's boundary 0.
func (rec *Recording) newCursor() *pmem.ImageCursor {
	return pmem.NewImageCursor(rec.DeviceBytes, rec.Journal)
}

// classAt names the structure the line in flight at boundary k belongs to.
func (s *sweep) classAt(k int) string {
	if k < len(s.rec.Journal) {
		return s.cl.classify(&s.rec.Journal[k])
	}
	return "end-of-trace"
}

// count enters one verified image at boundary k in the coverage counts.
func (s *sweep) count(part *Report, k int, class string) {
	part.Explored++
	part.Classes[class]++
	part.Paths[s.rec.phase(k)+"@"+class]++
}

// fail records an oracle failure at boundary k with full reproduction
// provenance: the kind of cut, the schedule key the recording ran under,
// the in-flight line's class, and that line's journal delta (line number,
// flushing thread, schedule step). Together with the trace name this pins
// the exact crash image.
func (s *sweep) fail(part *Report, k int, torn bool, class, detail string) {
	rec := s.rec
	v := Violation{
		Boundary: k, Cut: s.cut, Torn: torn && s.cut == PowerCut,
		Detail: detail, Schedule: rec.Sched, Class: class,
	}
	if k >= 0 && k < len(rec.Journal) {
		fd := &rec.Journal[k]
		v.Line, v.Thread, v.Step = fd.Line, fd.Thread, fd.Step
	}
	part.addViolation(v)
}

// powerCuts verifies the clean image, and with a Config.TornSeed the torn one,
// at ks[lo:hi].
func (s *sweep) powerCuts(part *Report, scratch *pmem.Device, lo, hi int) {
	rec, cfg := s.rec, s.cfg
	cursor := rec.newCursor()
	for i := lo; i < hi; i++ {
		k := s.ks[i]
		cursor.Advance(k)
		class := s.classAt(k)
		s.count(part, k, class)
		cursor.MaterializeInto(scratch)
		if cfg.CheckEvery > 0 && i%cfg.CheckEvery == 0 && k >= rec.CreatedAt && rec.Target.Check != nil {
			part.Checks++
			for _, p := range rec.Target.Check(scratch) {
				s.fail(part, k, false, class, "check: "+p)
			}
			// The checker clones before opening; the image is intact.
		}
		s.verifyImage(part, scratch, k, false, class)
		if cfg.TornSeed != 0 && cursor.MaterializeTornInto(scratch, cfg.TornSeed) {
			part.TornExplored++
			part.TornClasses[class]++
			s.verifyImage(part, scratch, k, true, class)
		}
	}
}

// recoveryCuts crashes the recovery of each image at ks[lo:hi] after every
// one of its flushes.
func (s *sweep) recoveryCuts(part *Report, scratch *pmem.Device, lo, hi int) {
	rec := s.rec
	cursor := rec.newCursor()
	for _, k := range s.ks[lo:hi] {
		cursor.Advance(k)
		class := s.classAt(k)
		// One uninterrupted recovery measures how many flushes there are
		// to cut after.
		cursor.MaterializeInto(scratch)
		before := scratch.Stats().Flushes
		if _, err := OpenGuarded(rec.Target, scratch); err != nil {
			s.fail(part, k, false, class, "recovery failed: "+err.Error())
			continue
		}
		cuts := int64(scratch.Stats().Flushes - before)
		part.Boundaries += int(cuts)
		for j := int64(0); j < cuts; j++ {
			cursor.MaterializeInto(scratch)
			scratch.CrashAfterFlushes(j)
			if _, err := OpenGuarded(rec.Target, scratch); err != nil {
				var pe *PanicError
				if errors.As(err, &pe) {
					s.fail(part, k, false, class, fmt.Sprintf("recovery cut after %d flushes panicked: %v", j, pe.Value))
					continue
				}
				// A typed failure of the interrupted run is fine: the
				// media is intact and the second recovery must cope.
			}
			scratch.Crash()
			s.count(part, k, class)
			s.verifyImage(part, scratch, k, false, class)
		}
	}
}

// cacheCuts runs the trace again and verifies the cache image as each
// flush in ks[lo:hi] completes. Flushes of Create and of shutdown are not
// cuts it can take: the heap does not exist yet, or no longer owes
// anything.
func (s *sweep) cacheCuts(part *Report, scratch *pmem.Device, lo, hi int) {
	rec := s.rec
	want := map[int]bool{}
	for _, k := range s.ks[lo:hi] {
		if k > rec.CreatedAt && k < rec.Boundaries() {
			want[k] = true
		}
	}
	if len(want) == 0 {
		return
	}
	dev := newDevice(func(dev *pmem.Device, k int) {
		if want[k] {
			class := s.classAt(k - 1)
			s.count(part, k-1, class)
			scratch.Restore(dev.Bytes(0, int(dev.Size())))
			s.verifyImage(part, scratch, k-1, true, class)
		}
	})
	again, err := runOn(dev, rec.Target, rec.Trace, rec.opts)
	switch {
	case err != nil:
		part.addViolation(Violation{Cut: CacheCut, Detail: "running the trace again failed: " + err.Error()})
	case again.Boundaries() != rec.Boundaries():
		part.addViolation(Violation{Cut: CacheCut, Detail: fmt.Sprintf(
			"the trace is not deterministic: %d boundaries when run again, %d recorded", again.Boundaries(), rec.Boundaries())})
	}
}

// holdsData reports whether r overlaps a block the trace allocated.
func (rec *Recording) holdsData(r pmem.Range) bool {
	for i := range rec.Ops {
		or := &rec.Ops[i]
		if or.Op.Size > 0 && or.Addr != 0 && r.Start < or.Addr+pmem.PAddr(or.Op.Size) && or.Addr < r.End {
			return true
		}
	}
	return false
}

// flipCuts verifies boundary k's image with seeded bits flipped in its
// metadata, for each k of ks[lo:hi]. MetaRanges takes the first line of
// every slab-sized region at the head of the heap for a slab header; where
// the trace put an extent there instead the line is object data — a flip in
// it is the application's to detect — and the recording says so.
func (s *sweep) flipCuts(part *Report, scratch *pmem.Device, lo, hi int) {
	rec := s.rec
	cursor := rec.newCursor()
	for _, k := range s.ks[lo:hi] {
		cursor.Advance(k)
		class := s.classAt(k)
		s.count(part, k, class)
		cursor.MaterializeInto(scratch)
		rng := splitmix64(s.cfg.TornSeed + uint64(k)*977)
		n := 1 + int(rng.next()%4)
		meta := slices.DeleteFunc(rec.Target.MetaRanges(scratch), rec.holdsData)
		bits := pmem.FlipBits(scratch.Bytes(0, int(scratch.Size())), meta, n, rng.next())
		found := len(part.Violations)
		s.verifyImage(part, scratch, k, false, class)
		for i := found; i < len(part.Violations); i++ {
			v := &part.Violations[i]
			v.Detail = fmt.Sprintf("image bits %#x flipped: %s", bits, v.Detail)
		}
	}
}

// Every returns the thinning that keeps every n'th boundary of a list,
// Last the one that keeps its final n: what short test runs and
// scaled-down experiment runs apply to a family's windows and flushes.
func Every(n int) func(ks []int) []int {
	return func(ks []int) []int {
		var out []int
		for i := 0; i < len(ks); i += n {
			out = append(out, ks[i])
		}
		return out
	}
}

func Last(n int) func(ks []int) []int {
	return func(ks []int) []int { return ks[max(0, len(ks)-n):] }
}
