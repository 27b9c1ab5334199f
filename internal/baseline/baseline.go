// Package baseline re-implements the five persistent memory allocators
// the paper compares against — PMDK, nvm_malloc, PAllocator, Makalu and
// Ralloc — faithfully in the dimensions the evaluation measures: where
// their small-allocation metadata lives (sequential bits or 2-byte slots in
// the slab header, or embedded free-list links), when it is flushed (under
// a per-operation log, or not until a post-crash GC), how arenas are shared
// (a fixed set, or one private arena per thread), how large-allocation
// bookkeeping is updated (always in place, in per-chunk header tables),
// and how much work recovery does. One engine realizes all five: a preset
// is a Config literal, and the engine reads its fields, not its name.
package baseline

import (
	"fmt"
	"hash/crc32"

	"nvalloc/internal/pmem"
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

// Config describes one classic allocator as a policy record. The engine
// implements two small paths: a logged one (LogEntries 1 or 2, a bitmap
// or slot metadata unit flushed per operation) and a GC-based one
// (LogEntries 0 with Slots: a slab's free blocks form an embedded list
// through the blocks themselves, nothing is flushed but the list links,
// and the slot image is written at clean shutdown). New refuses any other
// mix.
type Config struct {
	Name string
	// Slots keeps a 2-byte metadata slot per block in the slab header
	// (PAllocator's block metadata, the freelist allocators' shutdown
	// image) instead of one bit.
	Slots bool
	// LogEntries is the WAL entries a small malloc or free appends: the
	// bit, then a commit record (PMDK's transactions have 2, nvm_malloc's
	// and PAllocator's per-op logs 1). 0 logs nothing: the small path runs
	// over embedded free lists (Makalu, Ralloc), and a post-crash GC
	// rebuilds the metadata.
	LogEntries int
	// Arenas is the number of shared arenas threads are dealt over, least
	// loaded first; 0 gives every thread a private arena (PAllocator),
	// whose log needs no lock.
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

// freelist reports the GC-based small path: unlogged slabs keep their
// free blocks in an embedded list.
func (cfg *Config) freelist() bool { return cfg.LogEntries == 0 }

// check refuses a record outside the two small paths the engine
// implements, so a Config cannot describe a third one silently.
func (cfg *Config) check() error {
	if cfg.LogEntries < 0 || cfg.LogEntries > 2 || cfg.Arenas < 0 || cfg.freelist() && !cfg.Slots {
		return fmt.Errorf("baseline: %s: unsupported policy (Slots %v, LogEntries %d, Arenas %d): a logged style appends 1 or 2 entries, a GC style keeps slots",
			cfg.Name, cfg.Slots, cfg.LogEntries, cfg.Arenas)
	}
	return nil
}

// Presets for the five baselines, matching Section 7's descriptions.
var (
	// PMDK: transactional bitmap allocator, one global arena, no thread
	// cache, redo-log WAL with commit records; recovery travels the WAL.
	PMDK = Config{
		Name: "PMDK", LogEntries: 2, Arenas: 1, TcacheCap: 0,
		LargeTxnFlushes: 3, Recovery: RecoverWALScan,
	}
	// NvmMalloc: volatile+persistent bitmap split with per-op log
	// entries, per-core arenas, small thread cache; recovery defers
	// reconstruction to the deallocation path.
	NvmMalloc = Config{
		Name: "nvm_malloc", LogEntries: 1, Arenas: 16, TcacheCap: 16,
		LargeTxnFlushes: 1, Recovery: RecoverDeferred,
	}
	// PAllocator: per-thread small allocators (segregated fit) with
	// 2-byte block metadata in page headers and micro-logs; index-tree
	// large allocation with in-place persistent headers.
	PAllocator = Config{
		Name: "PAllocator", Slots: true, LogEntries: 1, TcacheCap: 16,
		LargeTxnFlushes: 1, Recovery: RecoverWALScan,
	}
	// Makalu: GC-based, embedded free lists (head and link flushed so
	// offline GC can trust them), slow first-fit large path; recovery is
	// a full conservative GC.
	Makalu = Config{
		Name: "Makalu", Slots: true, Arenas: 16, TcacheCap: 0,
		FlushLinkOnAlloc: true, FlushLinkOnFree: true,
		SlowLargeSearch: true, Recovery: RecoverGC,
	}
	// Ralloc: GC-based lock-free freelists; allocation pops from a
	// volatile mirror (no flush), frees persist the link; recovery scans
	// only reachable nodes.
	Ralloc = Config{
		Name: "Ralloc", Slots: true, Arenas: 16, TcacheCap: 16,
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
	sbVersion  = 8
	sbState    = 16
	sbBreak    = 56
	sbWALBase  = 80
	sbWALSize  = 88
	sbHeapBase = 96
	sbChecksum = 104 // CRC-32C over [0,104) with state and break zeroed
	sbRoots    = 128

	baseMagic = 0x424153454C4F4331 // "BASELOC1"
	// superVersion 1: a root publish is one walog.OpPublish entry. Earlier
	// images carry no version (0) and log publishes as op codes 3 and 4,
	// which replay would drop, so Open refuses them (pmem.FormatError).
	superVersion = 1

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
