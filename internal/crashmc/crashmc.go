// Package crashmc is a deterministic crash-point model checker for every
// allocator in the repository, and for the nvkv service above one. It has
// one way to make a crash image: it records an operation trace — serial,
// two threads' under a replayable schedule, or a service session — on a
// journaled device (internal/pmem's copy-on-flush
// journal), then takes every cut of it (Cut: each prefix of the flush
// journal, torn-line variants of the line in flight, a second crash inside
// recovery, the cache image a killed process leaves, seeded bit flips in
// the metadata of a prefix), reopens the image, and validates recovery
// against an oracle built from the recorded trace: the exact set of
// root-published blocks that must have survived, the two legal values of
// every root slot crossed by an in-flight operation, data markers of
// durable publishes, free-exactly-once semantics, and space-accounting
// bounds. What is
// checked is a table of families (Family; DESIGN.md §7 "Verification").
//
// Enumeration is tractable because image k+1 derives from image k with a
// single 64-byte line copy (pmem.ImageCursor), so checking all n
// boundaries costs n recoveries, not n workload replays; and because
// putting image k on the scratch device a recovery just ran on copies only
// the lines that recovery wrote and the lines the cursor moved over, not
// the whole device, so a cut costs what its recovery touches. Boundary
// ranges are partitioned across a caller-supplied worker pool (the
// experiment engine's, for nvbench and CI).
package crashmc

import (
	"fmt"
	"runtime/debug"

	"nvalloc/internal/alloc"
	"nvalloc/internal/baseline"
	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

// Target is one allocator under the checker.
type Target struct {
	Name string
	// Create formats a fresh heap on dev.
	Create func(dev *pmem.Device) (alloc.Heap, error)
	// Open recovers the heap after a crash.
	Open func(dev *pmem.Device) (alloc.Heap, error)
	// MetaRanges lists the checksummed or sealed metadata regions a flip
	// cut corrupts (a flip in plain object data is the application's
	// problem, not the allocator's). dev must hold a valid superblock.
	MetaRanges func(dev *pmem.Device) []pmem.Range
	// Check, when non-nil, runs the allocator's offline consistency
	// checker against the image (read-only: it must clone the device)
	// and returns every problem found (Config.CheckEvery).
	Check func(dev *pmem.Device) []string
}

// PanicError reports a panic recovered during a guarded heap open. Under
// the fault model, recovery panicking on any image is a bug — the oracle
// matches this type (errors.As) to tell it from a typed refusal.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("recovery panicked: %v", e.Value)
}

// OpenGuarded opens tg's heap on dev with panics converted into a
// *PanicError: a garbage image may be rejected with a typed error, but it
// must never crash the process. Everything that reopens a damaged or
// half-written image goes through it.
func OpenGuarded(tg Target, dev *pmem.Device) (h alloc.Heap, err error) {
	defer func() {
		if r := recover(); r != nil {
			h, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return tg.Open(dev)
}

// DefaultDeviceBytes sizes the model checker's devices, every target's. A
// cut resets its scratch device by copying only the lines the recovery
// before it wrote and the lines that differ between the two images, so the
// device's size costs a cut almost nothing: one full copy per scratch
// device and sweep share, and a bitmap of one bit per line to walk.
const DefaultDeviceBytes = 24 << 20

// SmokeGCThreshold is the bookkeeping-log slow-GC trigger used by the
// model checker's NVAlloc targets: low enough that the smoke trace's
// large-allocation churn drives incremental GC increments across crash
// boundaries (the default threshold would never fire inside a trace this
// small). The threshold is volatile (not persisted), so recovery with
// default options opens the same image unchanged.
const SmokeGCThreshold = 2 * 1024

// Targets returns the model checker's allocator targets: the three NVAlloc
// variants tuned for enumeration (VariantTarget) and the five baselines on
// two arenas.
func Targets() []Target {
	ts := []Target{VariantTarget(core.LOG), VariantTarget(core.GC), VariantTarget(core.IC)}
	for _, cfg := range baseline.Presets {
		cfg.Arenas = 2
		ts = append(ts, Target{
			Name: cfg.Name,
			Create: func(dev *pmem.Device) (alloc.Heap, error) {
				return baseline.New(dev, cfg)
			},
			Open: func(dev *pmem.Device) (alloc.Heap, error) {
				h, _, err := baseline.Open(dev, cfg)
				if err != nil {
					return nil, err
				}
				return h, nil
			},
			MetaRanges: func(dev *pmem.Device) []pmem.Range {
				return baseline.MetaRanges(dev)
			},
		})
	}
	return ts
}

// VariantTarget builds the model-checker target for one NVAlloc variant: 2
// arenas and a low blog-GC threshold.
func VariantTarget(v core.Variant) Target {
	return TargetOpts(v.String(), func() core.Options {
		opts := core.DefaultOptions(v)
		opts.Arenas = 2
		opts.BlogGCThreshold = SmokeGCThreshold
		return opts
	})
}

// TargetOpts builds an NVAlloc target from an options constructor, for
// tests that need non-default geometry (arena counts, the bookkeeping
// log's slow-GC threshold). Recovery always runs with DefaultOptions for the variant:
// persisted parameters override the caller's, which is itself part of
// what the checker exercises.
func TargetOpts(name string, mk func() core.Options) Target {
	v := mk().Variant
	return target(name, mk, func() core.Options { return core.DefaultOptions(v) })
}

// target builds an NVAlloc target that creates with create() and recovers
// (and checks) with open().
func target(name string, create, open func() core.Options) Target {
	return Target{
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
