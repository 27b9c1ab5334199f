// Package pmem simulates a byte-addressable persistent memory device with
// the performance characteristics that drive the NVAlloc paper's evaluation:
// cache-line flushes, reflush-distance penalties, sequential vs. random
// write latency, XPBuffer (write-combining buffer) pressure, and an
// ADR/eADR persistence domain.
//
// The device keeps two images of memory. The "cache" image is what CPU
// loads and stores observe. In strict mode a second "media" image holds
// only data that has been explicitly flushed; simulated crashes discard
// the cache image, so unflushed stores are lost exactly as they would be
// on ADR hardware. On an eADR device the cache is inside the persistence
// domain, flushes are free, and crashes lose nothing.
//
// Time is virtual. Every worker owns a Ctx with a monotonically advancing
// nanosecond clock; flushes charge the paper's measured latencies to that
// clock, and shared structures (device banks, allocator arenas, logs) are
// modelled as resource clocks so contention serializes virtual time the
// way a real lock serializes real time. Benchmark throughput is computed
// from the maximum clock over all workers, which makes every experiment
// deterministic and machine-independent.
package pmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// PAddr is a persistent address: a byte offset into the device. Offset 0 is
// reserved as the null address so that zeroed persistent memory reads as
// "no pointer".
type PAddr uint64

// Null is the zero PAddr.
const Null PAddr = 0

// LineSize is the CPU cache line size in bytes. All flush accounting is
// line-granular.
const LineSize = 64

// XPLineSize is the internal write granularity of the simulated media
// (Optane writes 256 B XPLines); the write-combining buffer tracks these.
const XPLineSize = 256

// Mode selects the persistence domain of the device.
type Mode int

const (
	// ModeADR: only flushed cache lines reach the persistence domain.
	ModeADR Mode = iota
	// ModeEADR: CPU caches are inside the persistence domain; flushes are
	// free and unflushed stores survive a crash.
	ModeEADR
)

func (m Mode) String() string {
	if m == ModeEADR {
		return "eADR"
	}
	return "ADR"
}

// Latency model constants, in virtual nanoseconds. The reflush curve
// (800 ns at distance 0 falling to 500 ns at distance 3) and the 3x/7x
// ratios against random/sequential writes come from Section 3.1 of the
// paper and its citations [7,40].
const (
	SeqFlushNS    = 115 // sequential regular flush
	RandFlushNS   = 265 // random regular flush
	ReflushBaseNS = 800 // reflush at distance 0
	ReflushStepNS = 100 // improvement per unit of reflush distance
	ReflushWindow = 4   // distance >= window counts as a regular flush
	XPMissNS      = 60  // extra media write when write-combining misses
	FenceNS       = 10  // store fence
	EADRFlushNS   = 2   // residual cost of a (no-op) flush call on eADR
	// BankServiceNS is the media-bank occupancy per line write; the rest
	// of a flush's latency is round-trip time that overlaps across
	// concurrent flushers, so the aggregate flush bandwidth is
	// banks/BankServiceNS.
	BankServiceNS  = 60
	xpLinesPerBank = 4 // write-combining entries per bank
	defaultBanks   = 8 // media banks (parallelism limit)

	// lineLockStripes is the number of line-lock stripes in strict mode
	// (power of two; lines hash by line % stripes).
	lineLockStripes = 1024
)

// Config configures a Device.
type Config struct {
	// Size is the device capacity in bytes. Rounded up to a 4 KiB multiple.
	Size uint64
	// Mode selects ADR (default) or eADR.
	Mode Mode
	// Strict maintains a separate persisted image so crashes can be
	// simulated faithfully. It roughly doubles memory use and adds a copy
	// per flush, so benchmarks leave it off.
	Strict bool
	// TraceFlushes, when > 0, records the address and category of the
	// first N flushed lines (used to reproduce Figure 2).
	TraceFlushes int
	// Journal records every flushed line as a copy-on-flush delta (see
	// journal.go), so crash images at arbitrary persistence boundaries
	// can be reconstructed incrementally. Requires Strict.
	Journal bool
	// OnJournal, when set, is called after every journaled flush with the
	// number of flushes journaled so far, on the flushing goroutine and
	// with no device lock held. The cache image at that instant — every
	// store made so far, flushed or not — is what killing the process
	// leaves behind when the device is a mapping the page cache backs.
	// Requires Journal.
	OnJournal func(flushes int)
}

// Device is a simulated persistent memory DIMM.
type Device struct {
	// image is the cache image — what loads and stores observe — and its
	// typed accessors (Bytes, ReadU64, ... Zero), which Device promotes.
	// Its lineLocks, allocated only in strict mode, stripe-lock cache
	// lines: every typed store takes its line's stripe so the whole-line
	// media copy in flushLine observes a consistent line even while
	// another worker writes a neighbouring word of the same line. Bytes()
	// views bypass the stripes — bulk users must do their own line-level
	// synchronization if they share lines across goroutines.
	image
	devStats

	mode   Mode
	strict bool
	size   uint64

	media []byte // persisted image (strict mode only)

	banks []bank

	crashed    atomic.Bool
	crashAfter atomic.Int64 // flush countdown; <0 means disabled

	// flushArmed is the flush fast-path gate: true whenever any of the
	// rare flush-time features — crash flag, armed flush countdown, flush
	// tracing — is active, so the steady-state flushLine pays one atomic
	// load instead of three. Arming sites store their state
	// first, then call armFlushGate; flushes racing with arming behave as
	// if they ordered before it, exactly as with the individual atomics.
	flushArmed atomic.Bool

	traceMu  sync.Mutex
	trace    []FlushRecord
	traceCap int

	journalOn bool
	onJournal func(flushes int)
	journalMu sync.Mutex
	journal   []FlushDelta

	// peer is what the device last synchronized its images with (reset.go):
	// the source it was reset from, or outTo the device it was copied into.
	peer any
}

// bank models one internal media bank: a resource clock plus a tiny LRU of
// recently written XPLines standing in for the shared write-combining
// buffer (XPBuffer).
type bank struct {
	mu      sync.Mutex
	clock   int64
	xplines [xpLinesPerBank]uint64 // +1 encoded, 0 = empty; index 0 is MRU
}

// FlushRecord is one traced flush (for Figure 2's address scatter).
type FlushRecord struct {
	Seq  int      // global flush order
	Addr PAddr    // line-aligned address
	Cat  Category // what kind of metadata was being flushed
}

// New creates a device of the given configuration.
func New(cfg Config) *Device {
	if cfg.Size == 0 {
		cfg.Size = 64 << 20
	}
	cfg.Size = (cfg.Size + 4095) &^ 4095
	if cfg.Journal && !cfg.Strict {
		panic("pmem: Config.Journal requires Config.Strict")
	}
	if cfg.OnJournal != nil && !cfg.Journal {
		panic("pmem: Config.OnJournal requires Config.Journal")
	}
	d := &Device{
		mode:      cfg.Mode,
		strict:    cfg.Strict,
		size:      cfg.Size,
		image:     image{data: make([]byte, cfg.Size)},
		banks:     make([]bank, defaultBanks),
		traceCap:  cfg.TraceFlushes,
		journalOn: cfg.Journal,
		onJournal: cfg.OnJournal,
	}
	if cfg.Strict {
		d.media = make([]byte, cfg.Size)
		d.lineLocks = make([]sync.Mutex, lineLockStripes)
	}
	if cfg.Journal {
		// A recording device: its cache image is what a cache-image cut
		// copies out, a line it changed at a time (RestoreFrom).
		d.lines = newLineSet(cfg.Size)
	}
	d.crashAfter.Store(-1)
	d.armFlushGate()
	return d
}

// armFlushGate recomputes the flush fast-path gate from the rare-feature
// state. Call after any change to the crash flag, the flush countdown or
// flush tracing.
func (d *Device) armFlushGate() {
	d.flushArmed.Store(d.crashed.Load() || d.crashAfter.Load() >= 0 || d.traceCap > 0)
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Mode returns the persistence mode of the device.
func (d *Device) Mode() Mode { return d.mode }

// EADR reports whether the device persistence domain includes the caches.
func (d *Device) EADR() bool { return d.mode == ModeEADR }

// CrashAfterFlushes arms a power cut: after n more successful line
// flushes the device "loses power" — subsequent flushes stop persisting and
// the device reports itself crashed. Combine with Crash to test recovery at
// an arbitrary persistence boundary. n < 0 disarms.
func (d *Device) CrashAfterFlushes(n int64) {
	d.crashAfter.Store(n)
	d.armFlushGate()
}

// Crashed reports whether an armed power cut has triggered.
func (d *Device) Crashed() bool { return d.crashed.Load() }

// Crash simulates power loss: in strict ADR mode the cache image is
// replaced by the persisted image, discarding every unflushed store. On
// eADR the cache image *is* persistent, so nothing is lost. The device
// remains usable afterwards (as if the machine rebooted and remapped the
// heap file). On a device that tracks what it changes since its last
// reset, only those lines can differ between the images, and only they
// are copied.
func (d *Device) Crash() {
	if !d.strict {
		panic("pmem: Crash requires a strict-mode device")
	}
	dst, src := d.data, d.media
	if d.mode == ModeEADR {
		// Whole cache is in the persistence domain.
		dst, src = d.media, d.data
	}
	if _, out := d.peer.(outTo); d.lines == nil || out {
		// A device copied out of tracks only what changed since the copy:
		// the images can differ anywhere, and the copy no longer matches.
		copy(dst, src)
		d.peer = nil
	} else {
		d.lines.each(false, func(line uint64) {
			off := line * LineSize
			copy(dst[off:off+LineSize], src[off:off+LineSize])
		})
	}
	d.crashed.Store(false)
	d.crashAfter.Store(-1)
	d.armFlushGate()
	d.ResetTimeline()
}

// ResetTimeline starts a fresh virtual timeline, as a reboot does: bank
// clocks and the write-combining buffer do not survive power loss or a
// process restart. Recovery (core.Open) calls it so that a new session's
// contexts, which start at virtual time 0, do not queue behind the bank
// load of every flush the previous session issued.
func (d *Device) ResetTimeline() {
	for i := range d.banks {
		d.banks[i].mu.Lock()
		d.banks[i].clock = 0
		d.banks[i].xplines = [xpLinesPerBank]uint64{}
		d.banks[i].mu.Unlock()
	}
}

// Discard is a no-op: the simulated device holds no pages to give back,
// and nothing reads free space, so what a free extent holds does not
// matter.
func (d *Device) Discard(addr PAddr, n int) error { return nil }

// SaveImage writes the persisted image (strict mode) or the cache image to
// path with WriteImage, emulating the DAX heap file surviving a process
// exit.
func (d *Device) SaveImage(path string) error {
	src := d.data
	if d.strict {
		src = d.media
	}
	return WriteImage(path, src)
}

// mediaImage is the strict device's persisted image (nil otherwise).
func (d *Device) mediaImage() []byte { return d.media }

// Image returns a private copy of the bytes a restart of dev reads: a
// strict simulated device's media image, otherwise the whole device as
// Bytes views it — the cache image, or the direct device's memory or file
// mapping. The copy is a consistent cut only while nothing writes the
// device.
func Image(dev Dev) []byte {
	src := dev.mediaImage()
	if src == nil {
		src = dev.Bytes(0, int(dev.Size()))
	}
	return bytes.Clone(src)
}

// WriteImage writes img to path through a temporary file in the same
// directory, synced and renamed into place, so a host crash mid-save can
// never leave a torn image behind.
func WriteImage(path string, img []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pmem-img-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// LoadImage replaces both images with the contents of path. The file must
// be exactly the device size: a short file means a truncated image, a long
// one means a garbage tail — both are reported distinctly so callers can
// tell which failure they are looking at.
func (d *Device) LoadImage(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if uint64(len(b)) < d.size {
		return fmt.Errorf("pmem: image truncated: %d bytes, device size %d", len(b), d.size)
	}
	if uint64(len(b)) > d.size {
		return fmt.Errorf("pmem: image has %d trailing garbage bytes beyond device size %d", uint64(len(b))-d.size, d.size)
	}
	copy(d.data, b)
	if d.strict {
		copy(d.media, b)
	}
	d.peer = nil // every line changed: the next reset copies them all
	return nil
}

// FlushTrace returns the recorded flush trace (nil unless TraceFlushes was
// set).
func (d *Device) FlushTrace() []FlushRecord {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	out := make([]FlushRecord, len(d.trace))
	copy(out, d.trace)
	return out
}
