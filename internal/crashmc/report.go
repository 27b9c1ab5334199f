package crashmc

import (
	"fmt"
	"strings"

	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
	"nvalloc/internal/slab"
)

// Violation is one oracle failure at one crash image, carrying enough
// provenance to reproduce it: the boundary index, the schedule key of
// the recording (multi-threaded runs), and the in-flight flush delta's
// class, line and (thread, schedule step) stamp.
type Violation struct {
	Boundary int
	// Cut is the kind of cut that made the image, stamped by the sweep;
	// Torn marks a power cut's torn-line variant.
	Cut    Cut
	Torn   bool
	Detail string
	// Schedule is Recording.Sched ("" for single-threaded recordings).
	Schedule string
	// Class is the in-flight line's structure class at the boundary;
	// Line/Thread/Step are that journal delta's provenance (Thread 0 and
	// Step -1 outside scheduled phases; all zero at end-of-trace).
	Class  string
	Line   uint64
	Thread int32
	Step   int32
}

func (v Violation) String() string {
	t := ""
	switch {
	case v.Torn:
		t = " (torn)"
	case v.Cut == RecoveryCut:
		t = " (second crash inside its recovery)"
	case v.Cut == CacheCut:
		t = " (cache image after the in-flight flush)"
	case v.Cut == FlipCut:
		t = " (metadata bits flipped)"
	}
	s := fmt.Sprintf("boundary %d%s", v.Boundary, t)
	if v.Schedule != "" {
		s += " sched=" + v.Schedule
	}
	if v.Class != "" && v.Class != "end-of-trace" {
		s += fmt.Sprintf(" inflight=%s line=%#x t%d@%d", v.Class, v.Line, v.Thread, v.Step)
	}
	return s + ": " + v.Detail
}

// Report summarizes one sweep over one recording — or, for a raced
// family, every power-cut sweep of its schedules (FamilyReport.Sweep).
type Report struct {
	Target string
	Trace  string
	Cut    Cut
	// Boundaries is how many images there were to take (see Sweep);
	// Explored is how many this run verified (== Boundaries with no caps:
	// 100% coverage).
	Boundaries int
	Explored   int
	// TornExplored counts torn-line variants verified on top of the
	// clean-cut images.
	TornExplored int
	// Checks counts offline consistency-checker (Target.Check) runs.
	Checks int
	// Detected counts the flip-cut images recovery refused with a typed
	// corruption error; the other Explored - Detected opened and were held
	// to the oracle.
	Detected int
	// ViolationCount is the total number of violations; Violations holds
	// the first maxViolations of them.
	ViolationCount int
	Violations     []Violation
	// Classes counts explored boundaries by the class of the in-flight
	// line (wal-entry, bitmap-stripe, blog-entry, slab-header, ...);
	// TornClasses counts the torn variants per class.
	Classes     map[string]int
	TornClasses map[string]int
	// Paths counts distinct recovery paths hit: (trace phase, in-flight
	// line class) pairs.
	Paths map[string]int
}

// newReport returns an empty report of target's recovery on trace.
func newReport(target, trace string, cut Cut) *Report {
	return &Report{
		Target:      target,
		Trace:       trace,
		Cut:         cut,
		Classes:     map[string]int{},
		TornClasses: map[string]int{},
		Paths:       map[string]int{},
	}
}

// maxViolations bounds the violations retained per report; the count is
// always exact.
const maxViolations = 64

// Coverage is Explored / Boundaries.
func (r *Report) Coverage() float64 {
	if r.Boundaries == 0 {
		return 0
	}
	return float64(r.Explored) / float64(r.Boundaries)
}

// Passed reports whether the enumeration found no violations.
func (r *Report) Passed() bool { return r.ViolationCount == 0 }

func (r *Report) addViolation(v Violation) {
	r.ViolationCount++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, v)
	}
}

func (r *Report) merge(o *Report) {
	r.Boundaries += o.Boundaries
	r.Explored += o.Explored
	r.TornExplored += o.TornExplored
	r.Checks += o.Checks
	r.Detected += o.Detected
	r.ViolationCount += o.ViolationCount
	for _, v := range o.Violations {
		if len(r.Violations) < maxViolations {
			r.Violations = append(r.Violations, v)
		}
	}
	for k, n := range o.Classes {
		r.Classes[k] += n
	}
	for k, n := range o.TornClasses {
		r.TornClasses[k] += n
	}
	for k, n := range o.Paths {
		r.Paths[k] += n
	}
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s %s: %d/%d boundaries (%.1f%%), %d torn, %d paths, %d checks, %d violations",
		r.Target, r.Trace, r.Cut, r.Explored, r.Boundaries, 100*r.Coverage(),
		r.TornExplored, len(r.Paths), r.Checks, r.ViolationCount)
	if r.Cut == FlipCut {
		fmt.Fprintf(&b, ", %d detected", r.Detected)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// classifier maps a journaled flush to the persistent structure it was
// updating, using the recorded device's superblock layout. Nil for
// targets without a labeled layout (the baselines), which fall back to
// flush-category classes.
type classifier struct {
	regions  []core.Region
	heapBase pmem.PAddr
}

func newClassifier(rec *Recording) *classifier {
	if !strings.HasPrefix(rec.Target.Name, "NVAlloc") {
		return nil
	}
	cl := &classifier{regions: core.Regions(rec.Dev)}
	for _, r := range cl.regions {
		if r.Name == "heap" {
			cl.heapBase = r.Range.Start
		}
	}
	return cl
}

// classify names the structure the delta's line belongs to. The classes
// the fault model cares about are the unfenced-line classes: "wal-entry"
// (WAL batch prefixes), "bitmap-stripe" (slab bitmap words),
// "blog-entry" (bookkeeping-log appends and GC copies) and
// "slab-header"; the rest ("superblock", "root-slot", "object-data",
// "other") complete the partition.
func (cl *classifier) classify(fd *pmem.FlushDelta) string {
	addr := pmem.PAddr(fd.Line * pmem.LineSize)
	if cl == nil {
		// No layout: classify by what the allocator said it was flushing.
		switch fd.Cat {
		case pmem.CatWAL:
			return "wal-entry"
		case pmem.CatMeta:
			return "metadata"
		default:
			return "object-data"
		}
	}
	for _, r := range cl.regions {
		if addr < r.Range.Start || addr >= r.Range.End {
			continue
		}
		switch r.Name {
		case "superblock":
			return "superblock"
		case "roots":
			return "root-slot"
		case "wal":
			return "wal-entry"
		case "blog":
			return "blog-entry"
		case "heap":
			if (addr-cl.heapBase)%slab.Size < pmem.LineSize {
				return "slab-header"
			}
			if fd.Cat == pmem.CatMeta {
				return "bitmap-stripe"
			}
			return "object-data"
		}
	}
	return "other"
}

// phase names the trace region boundary k falls in: the in-flight op's
// kind — or, in a multi-threaded recording, the "+"-joined kinds of
// every op in flight (one per thread, in completion order) — or one of
// the bracketing phases.
func (rec *Recording) phase(k int) string {
	if k < rec.CreatedAt {
		return "create"
	}
	if k >= rec.CloseStart {
		return "close"
	}
	// Under a schedule windows overlap and FlushStart is not monotone, so
	// scan everything; a serial recording has at most one op in flight.
	var kinds []string
	for i := range rec.Ops {
		if or := &rec.Ops[i]; or.FlushStart < k && k < or.FlushEnd {
			kind := or.Op.Kind.String()
			if rec.Trace.Serve != nil {
				kind = "serve"
			}
			kinds = append(kinds, kind)
		}
	}
	if len(kinds) == 0 {
		return "quiescent"
	}
	return strings.Join(kinds, "+")
}
