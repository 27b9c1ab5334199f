// Package baseline re-implements the five persistent memory allocators
// the paper compares against — PMDK, nvm_malloc, PAllocator, Makalu and
// Ralloc — faithfully in the dimensions the evaluation measures: where
// their small-allocation metadata lives (sequential bitmaps vs. embedded
// free-list links), how it is persisted (transactional WAL, single log
// entries, 2-byte micro-log slots in page headers, or nothing until a
// post-crash GC), how arenas are shared (one global arena, per-core
// arenas, or PAllocator's per-thread allocators), how large-allocation
// bookkeeping is updated (always in place, in per-chunk header tables),
// and how much work recovery does. A single configurable engine realizes
// all five so their differences are explicit data, not scattered code.
package baseline

import (
	"hash/crc32"

	"nvalloc/internal/pmem"
)

// SmallMeta selects how free blocks inside a slab are tracked.
type SmallMeta int

// Small-allocation metadata styles.
const (
	// MetaBitmap: a sequentially mapped bitmap in the slab header
	// (PMDK, nvm_malloc, PAllocator). Consecutive allocations set
	// adjacent bits and reflush the same cache line.
	MetaBitmap SmallMeta = iota
	// MetaFreelist: an embedded linked list through the free blocks
	// (Makalu, Ralloc). Every list operation touches the block's own
	// cache line in persistent memory.
	MetaFreelist
)

// PersistStyle selects the consistency machinery on the small path.
type PersistStyle int

// Persistence styles.
const (
	// PersistTxnWAL: a redo-log entry plus a separate commit record per
	// operation (PMDK transactions).
	PersistTxnWAL PersistStyle = iota
	// PersistWAL: one log entry per operation (nvm_malloc).
	PersistWAL
	// PersistMicroLog: a 2-byte block-metadata slot in the page header
	// plus a micro-log entry (PAllocator).
	PersistMicroLog
	// PersistNone: nothing persisted on the small path; a post-crash GC
	// rebuilds metadata (Makalu, Ralloc).
	PersistNone
)

// ArenaModel selects how threads share allocation state.
type ArenaModel int

// Arena models.
const (
	// ArenaGlobal: one arena, one lock (PMDK).
	ArenaGlobal ArenaModel = iota
	// ArenaPerCore: a fixed set of arenas, threads assigned round-robin
	// (nvm_malloc, Makalu, Ralloc).
	ArenaPerCore
	// ArenaPerThread: every thread owns a private small allocator
	// (PAllocator).
	ArenaPerThread
)

// RecoveryStyle selects how much work Open does after a crash.
type RecoveryStyle int

// Recovery styles (Figure 18).
const (
	// RecoverDeferred: open the heap and defer metadata reconstruction
	// to runtime (nvm_malloc).
	RecoverDeferred RecoveryStyle = iota
	// RecoverWALScan: replay the WAL and scan slab headers (PMDK).
	RecoverWALScan
	// RecoverGC: full conservative GC from the roots (Makalu).
	RecoverGC
	// RecoverPartialScan: pointer-chase only reachable nodes (Ralloc).
	RecoverPartialScan
)

// Config describes one classic allocator.
type Config struct {
	Name    string
	Meta    SmallMeta
	Persist PersistStyle
	Model   ArenaModel
	// Arenas is the arena count for ArenaPerCore.
	Arenas int
	// TcacheCap is the per-class thread-cache capacity (0 disables the
	// cache: every operation takes the arena lock).
	TcacheCap int
	// FlushLinkOnAlloc / FlushLinkOnFree control embedded-freelist
	// persistence: Makalu flushes both the head and the link; Ralloc's
	// lock-free lists only persist the link on free.
	FlushLinkOnAlloc bool
	FlushLinkOnFree  bool
	// LargeTxnFlushes is the number of extra WAL flushes per large
	// allocation/free (transactional header updates).
	LargeTxnFlushes int
	// SlowLargeSearch charges a persistent first-fit scan over the live
	// extent population on every large operation (Makalu).
	SlowLargeSearch bool
	Recovery        RecoveryStyle
}

// Presets for the five baselines, matching Section 7's descriptions.
var (
	// PMDK: transactional bitmap allocator, one global arena, no thread
	// cache, redo-log WAL with commit records; recovery travels the WAL.
	PMDK = Config{
		Name: "PMDK", Meta: MetaBitmap, Persist: PersistTxnWAL,
		Model: ArenaGlobal, TcacheCap: 0,
		LargeTxnFlushes: 3, Recovery: RecoverWALScan,
	}
	// NvmMalloc: volatile+persistent bitmap split with per-op log
	// entries, per-core arenas, small thread cache; recovery defers
	// reconstruction to the deallocation path.
	NvmMalloc = Config{
		Name: "nvm_malloc", Meta: MetaBitmap, Persist: PersistWAL,
		Model: ArenaPerCore, Arenas: 16, TcacheCap: 16,
		LargeTxnFlushes: 1, Recovery: RecoverDeferred,
	}
	// PAllocator: per-thread small allocators (segregated fit) with
	// 2-byte block metadata in page headers and micro-logs; index-tree
	// large allocation with in-place persistent headers.
	PAllocator = Config{
		Name: "PAllocator", Meta: MetaBitmap, Persist: PersistMicroLog,
		Model: ArenaPerThread, TcacheCap: 16,
		LargeTxnFlushes: 1, Recovery: RecoverWALScan,
	}
	// Makalu: GC-based, embedded free lists (head and link flushed so
	// offline GC can trust them), slow first-fit large path; recovery is
	// a full conservative GC.
	Makalu = Config{
		Name: "Makalu", Meta: MetaFreelist, Persist: PersistNone,
		Model: ArenaPerCore, Arenas: 16, TcacheCap: 0,
		FlushLinkOnAlloc: true, FlushLinkOnFree: true,
		SlowLargeSearch: true, Recovery: RecoverGC,
	}
	// Ralloc: GC-based lock-free freelists; allocation pops from a
	// volatile mirror (no flush), frees persist the link; recovery scans
	// only reachable nodes.
	Ralloc = Config{
		Name: "Ralloc", Meta: MetaFreelist, Persist: PersistNone,
		Model: ArenaPerCore, Arenas: 16, TcacheCap: 16,
		FlushLinkOnFree: true, Recovery: RecoverPartialScan,
	}
)

// Presets lists the five baselines in the order reports show them.
var Presets = []Config{PMDK, NvmMalloc, PAllocator, Makalu, Ralloc}

// Preset returns the baseline whose Config.Name is name: the one place a
// name a table or a target carries turns into a configuration.
func Preset(name string) (Config, bool) {
	for _, cfg := range Presets {
		if cfg.Name == name {
			return cfg, true
		}
	}
	return Config{}, false
}

// Superblock layout for baseline heaps (mirrors core's, minimal).
const (
	superBase = pmem.PAddr(4096)

	sbMagic    = 0
	sbState    = 16
	sbArenas   = 24
	sbBreak    = 56
	sbWALBase  = 80
	sbWALSize  = 88
	sbHeapBase = 96
	sbChecksum = 104 // CRC-32C over [0,104) with state and break zeroed
	sbRoots    = 128

	baseMagic = 0x424153454C4F4331 // "BASELOC1"

	stateRunning  = 1
	stateShutdown = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// superCRC computes the baseline superblock checksum: CRC-32C over its
// first 104 bytes with the run-state word [16,24) and the heap break
// [56,64) zeroed — both change at runtime without a checksum update
// (the state word is sealed instead, the break self-heals in
// extent.Rebuild).
func superCRC(dev pmem.Dev) uint32 {
	var buf [sbChecksum]byte
	copy(buf[:], dev.Bytes(superBase, sbChecksum))
	for i := sbState; i < sbState+8; i++ {
		buf[i] = 0
	}
	for i := sbBreak; i < sbBreak+8; i++ {
		buf[i] = 0
	}
	return crc32.Checksum(buf[:], crcTable)
}
