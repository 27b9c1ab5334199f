package pmem

// Dev is the device abstraction the allocators run on. Two implementations
// exist:
//
//   - *Device, the simulated DIMM: virtual-time flush latencies, strict-mode
//     media shadowing, crash injection and flush journaling. Every experiment
//     table and the crash-point model checker run on it.
//   - *DirectDev, the real-concurrency device: plain memory (anonymous or an
//     mmap'd file), no per-line simulation locks, and flushes reduced to
//     no-op instrumentation counters. Hot paths run at wall-clock speed under
//     real goroutines.
//
// The interface is deliberately exactly the surface the allocator layers
// (core, baseline, slab, walog, blog, extent) use. It does not say which
// device it is, or whether the device shadows a media image: nothing above
// this package branches on that, and only Ctx's fast paths, inside it, tell
// the two apart. The simulation-only
// features (Crash, SaveImage, FlushTrace, the flush journal) stay on the concrete
// *Device so a glance at a signature tells whether code can be reached from
// real mode.
//
// Dev is sealed (mergeStats is unexported): only this package's devices can
// implement it, which lets Ctx assume one of the two concrete types on its
// fast paths.
type Dev interface {
	// Size returns the device capacity in bytes.
	Size() uint64
	// Mode returns the persistence mode (ADR or eADR).
	Mode() Mode
	// EADR reports whether the persistence domain includes the caches.
	EADR() bool

	// Mem returns the concrete image view hot paths hold by value to
	// avoid interface dispatch on every typed access. Both devices embed
	// it, which is where the accessors below come from.
	Mem() Mem

	// Bytes returns a mutable view of [addr, addr+n); see Mem.Bytes for
	// the flushing and synchronization contract.
	Bytes(addr PAddr, n int) []byte
	ReadU64(addr PAddr) uint64
	WriteU64(addr PAddr, v uint64)
	ReadU32(addr PAddr) uint32
	WriteU32(addr PAddr, v uint32)
	ReadU16(addr PAddr) uint16
	WriteU16(addr PAddr, v uint16)
	ReadU8(addr PAddr) byte
	WriteU8(addr PAddr, v byte)
	// Write copies p into the device at addr.
	Write(addr PAddr, p []byte)
	// Zero clears [addr, addr+n).
	Zero(addr PAddr, n int)

	// NewCtx creates a worker context bound to this device.
	NewCtx() *Ctx
	// Stats returns a snapshot of the merged device statistics.
	Stats() Stats
	// ResetStats clears merged statistics.
	ResetStats()
	// ResetTimeline starts a fresh virtual timeline (a reboot); a no-op
	// on the direct device, which has no virtual time.
	ResetTimeline()
	// Discard gives back the pages behind [addr, addr+n), a free range
	// nothing will read before it is written again. On the direct device
	// the range then reads zero and holds no memory; on the simulated one
	// Discard is a no-op. An error means the pages are still there.
	Discard(addr PAddr, n int) error

	// mergeStats folds a finishing worker's local counters into the device
	// totals (Ctx.Merge). Unexported: it seals the interface.
	mergeStats(local *Stats, flushIssued uint64, now int64)
	// mediaImage is a persisted image kept apart from the one Bytes
	// views, which a restart reads instead (Image); nil if there is none.
	mediaImage() []byte
}

var (
	_ Dev = (*Device)(nil)
	_ Dev = (*DirectDev)(nil)
)
