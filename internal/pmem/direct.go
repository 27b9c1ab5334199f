package pmem

import (
	"fmt"
	"time"
)

// DirectDev is the real-concurrency device: the heap region is plain
// memory — anonymous by default, or an mmap'd file when DirectConfig.Path
// is set — accessed at wall-clock speed. There is no virtual-time model,
// no shadow media image and no per-line simulation locking: goroutines
// synchronize exactly where the allocators already synchronize (arena
// resources, slab mutexes, atomics), so real contention is measured, not
// modelled. Flushes and fences degrade to per-worker instrumentation
// counters, which keeps flush-call ratios comparable with simulated runs
// at (almost) zero cost.
//
// DirectDev makes no crash-consistency claims: without the strict media
// image and the flush journal there is no persistence boundary to cut, so
// Crash/recovery experiments stay on *Device (crashmc is unaffected by
// this mode).
type DirectDev struct {
	image // no line locks: every accessor reduces to a checked slice access
	devStats

	size uint64

	// clock is every context's Clock.
	clock func() int64

	// unmap releases a file mapping on Close (nil for anonymous memory).
	unmap func() error
}

// DirectConfig configures a DirectDev.
type DirectConfig struct {
	// Size is the device capacity in bytes. Rounded up to a 4 KiB multiple.
	Size uint64
	// Path, when non-empty, backs the device with an mmap'd file of Size
	// bytes (created or truncated), emulating a DAX heap file. Empty uses
	// anonymous memory.
	Path string
	// Clock, when set, replaces the wall clock the contexts' Clock reads
	// (nanoseconds since the device was created), so a test can step the
	// time free-extent decay ages by, or stop it. It must be safe for
	// concurrent use and never go back.
	Clock func() int64
}

// NewDirect creates a real-concurrency device.
func NewDirect(cfg DirectConfig) (*DirectDev, error) {
	if cfg.Size == 0 {
		cfg.Size = 64 << 20
	}
	cfg.Size = (cfg.Size + 4095) &^ 4095
	d := &DirectDev{size: cfg.Size, clock: cfg.Clock}
	if d.clock == nil {
		born := time.Now()
		d.clock = func() int64 { return int64(time.Since(born)) }
	}
	if cfg.Path == "" {
		d.data = make([]byte, cfg.Size)
		return d, nil
	}
	mem, unmap, err := mapFile(cfg.Path, cfg.Size)
	if err != nil {
		return nil, fmt.Errorf("pmem: direct device on %s: %w", cfg.Path, err)
	}
	d.data = mem
	d.unmap = unmap
	return d, nil
}

// Close releases a file mapping. Anonymous devices need no Close.
func (d *DirectDev) Close() error {
	if d.unmap == nil {
		return nil
	}
	u := d.unmap
	d.unmap = nil
	d.data = nil
	return u()
}

// Size returns the device capacity in bytes.
func (d *DirectDev) Size() uint64 { return d.size }

// Mode returns ModeADR: real mode keeps the ADR layout decisions
// (interleaved mappings stay enabled) even though flushes are no-ops.
func (d *DirectDev) Mode() Mode { return ModeADR }

// EADR reports false; see Mode.
func (d *DirectDev) EADR() bool { return false }

// mediaImage is nil: the mapping itself is what a restart reads.
func (d *DirectDev) mediaImage() []byte { return nil }

// ResetTimeline is a no-op: there is no virtual time to restart.
func (d *DirectDev) ResetTimeline() {}

// NewCtx creates a worker context for the device. Direct contexts count
// flushes and fences but never advance virtual time or touch bank or
// line-lock state.
func (d *DirectDev) NewCtx() *Ctx {
	return &Ctx{dev: d, mem: d.Mem(), clock: d.clock}
}

// Discard gives the pages behind [addr, addr+n) back: it punches the
// range out of a heap file (MADV_REMOVE), so the file's blocks are freed
// too, and drops anonymous pages (MADV_DONTNEED). Either way the range
// reads zero afterwards. The range must cover whole pages of the
// operating system; where it does not, or the kernel refuses, the pages
// stay and Discard says so.
func (d *DirectDev) Discard(addr PAddr, n int) error {
	if n <= 0 {
		return nil
	}
	d.check(addr, n)
	return discard(d.data[addr:int(addr)+n], d.unmap != nil)
}
