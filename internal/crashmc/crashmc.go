// Package crashmc is a deterministic crash-point model checker for every
// allocator in the repository. Where internal/torture samples random
// fault plans, crashmc *enumerates*: it records an operation trace —
// serial, or two threads' under a replayable schedule — on a journaled
// device (internal/pmem's copy-on-flush journal), then takes every cut of
// it (Cut: each prefix of the flush journal, torn-line variants of the
// line in flight, a second crash inside recovery, the cache image a killed
// process leaves), reopens the image, and validates recovery against an
// oracle built from the recorded trace: the exact set of root-published
// blocks that must have survived, the two legal values of every root slot
// crossed by an in-flight operation, data markers of durable publishes,
// free-exactly-once semantics, and space-accounting bounds. What is
// checked is a table of families (Family; DESIGN.md §7 "Verification").
//
// Enumeration is tractable because image k+1 derives from image k with a
// single 64-byte line copy (pmem.ImageCursor), so checking all n
// boundaries costs n recoveries, not n workload replays; boundary ranges
// are partitioned across a caller-supplied worker pool (the experiment
// engine's, for nvbench and CI).
package crashmc

import (
	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
	"nvalloc/internal/torture"
)

// DefaultDeviceBytes sizes the model checker's devices. Smaller than
// torture's: every enumerated boundary copies the full image into the
// scratch device, so the image size multiplies directly into enumeration
// cost.
const DefaultDeviceBytes = 24 << 20

// SmokeGCThreshold is the bookkeeping-log slow-GC trigger used by the
// model checker's NVAlloc targets: low enough that the smoke trace's
// large-allocation churn drives incremental GC increments across crash
// boundaries (the default threshold would never fire inside a trace this
// small). The threshold is volatile (not persisted), so recovery with
// default options opens the same image unchanged.
const SmokeGCThreshold = 2 * 1024

// Targets returns the model checker's allocator targets: the same eight
// allocators as internal/torture, with the NVAlloc variants re-tuned for
// enumeration (2 arenas, low blog-GC threshold).
func Targets() []torture.Target {
	ts := []torture.Target{
		Target("NVAlloc-LOG", core.LOG),
		Target("NVAlloc-GC", core.GC),
		Target("NVAlloc-IC", core.IC),
	}
	for _, tg := range torture.Targets() {
		switch tg.Name {
		case "NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC":
			continue
		}
		ts = append(ts, tg)
	}
	return ts
}

// Target builds a model-checker target for one NVAlloc variant.
func Target(name string, v core.Variant) torture.Target {
	return TargetOpts(name, func() core.Options {
		opts := core.DefaultOptions(v)
		opts.Arenas = 2
		opts.BlogGCThreshold = SmokeGCThreshold
		return opts
	})
}

// TargetOpts builds an NVAlloc target from an options constructor, for
// tests that need non-default geometry (arena counts, bookkeeping
// shards). Recovery always runs with DefaultOptions for the variant:
// persisted parameters override the caller's, which is itself part of
// what the checker exercises.
func TargetOpts(name string, mk func() core.Options) torture.Target {
	v := mk().Variant
	return target(name, mk, func() core.Options { return core.DefaultOptions(v) })
}

// target builds an NVAlloc target that creates with create() and recovers
// (and checks) with open().
func target(name string, create, open func() core.Options) torture.Target {
	return torture.Target{
		Name: name,
		Create: func(dev *pmem.Device) (alloc.Heap, error) {
			return core.Create(dev, create())
		},
		Open: func(dev *pmem.Device) (alloc.Heap, error) {
			h, _, err := core.Open(dev, open())
			if err != nil {
				return nil, err
			}
			return h, nil
		},
		MetaRanges: func(dev *pmem.Device) []pmem.Range {
			return core.MetaRanges(dev)
		},
		Check: func(dev *pmem.Device) []string {
			return core.Check(dev, open())
		},
	}
}
