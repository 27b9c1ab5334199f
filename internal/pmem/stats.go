package pmem

import "sync"

// Stats aggregates flush and timing counters. Each Ctx accumulates a local
// Stats and folds it into the device with Merge.
type Stats struct {
	// Flushes is the number of line flushes that reached the device
	// (including eADR no-op flushes, which are still counted so flush-call
	// ratios remain comparable across modes).
	Flushes uint64
	// Reflushes is the subset of flushes whose reflush distance was below
	// ReflushWindow.
	Reflushes uint64
	// SeqFlushes and RandFlushes partition the regular (non-re-) flushes
	// by access pattern.
	SeqFlushes  uint64
	RandFlushes uint64
	// Fences counts store fences.
	Fences uint64

	// CatNS is virtual time charged per category.
	CatNS [NumCategories]int64
	// CatFlush is flush count per category.
	CatFlush [NumCategories]uint64

	// LockWaitNS is time the worker's clock was dragged forward by
	// Resource acquisition (virtual lock contention).
	LockWaitNS int64
	// BankWaitNS is time spent queueing on media banks.
	BankWaitNS int64

	// MaxClockNS is the maximum worker clock merged so far; for a
	// multi-threaded run it is the run's virtual makespan.
	MaxClockNS int64
}

func (s *Stats) add(o *Stats) {
	s.Flushes += o.Flushes
	s.Reflushes += o.Reflushes
	s.SeqFlushes += o.SeqFlushes
	s.RandFlushes += o.RandFlushes
	s.Fences += o.Fences
	for i := range s.CatNS {
		s.CatNS[i] += o.CatNS[i]
	}
	for i := range s.CatFlush {
		s.CatFlush[i] += o.CatFlush[i]
	}
	s.LockWaitNS += o.LockWaitNS
	s.BankWaitNS += o.BankWaitNS
}

// TotalNS is the summed per-category virtual time (work, not makespan).
func (s *Stats) TotalNS() int64 {
	var t int64
	for _, v := range s.CatNS {
		t += v
	}
	return t
}

// ReflushRatio is the fraction of flushes that were reflushes.
func (s *Stats) ReflushRatio() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Reflushes) / float64(s.Flushes)
}

// devStats is the merged-statistics block both devices embed: the totals
// finished workers fold in through Ctx.Merge. It is kept out of the flush
// hot path — a shared atomic increment per flush costs more than the
// flush model itself — so everything here is guarded by one mutex.
type devStats struct {
	statsMu sync.Mutex
	stats   Stats
	// flushTotal aggregates per-Ctx flush-issue counts.
	flushTotal uint64
}

// Stats returns a snapshot of the merged device statistics. On a
// DirectDev only the operation counters (Flushes, Fences, CatFlush) are
// meaningful; the virtual-time fields stay zero.
func (s *devStats) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// ResetStats clears merged statistics.
func (s *devStats) ResetStats() {
	s.statsMu.Lock()
	s.stats = Stats{}
	s.statsMu.Unlock()
}

// FlushTotal returns the number of line flushes issued over the device's
// lifetime by contexts that have merged (Ctx.Merge), including flushes
// dropped after an armed crash fired. It is the coordinate system
// CrashAfterFlushes cuts in: call it after the workload's contexts have
// merged and the value equals the number of flushLine invocations the
// countdown saw.
func (s *devStats) FlushTotal() uint64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.flushTotal
}

// mergeStats folds a finishing worker's local counters into the totals.
func (s *devStats) mergeStats(local *Stats, flushIssued uint64, now int64) {
	s.statsMu.Lock()
	s.stats.add(local)
	s.flushTotal += flushIssued
	if now > s.stats.MaxClockNS {
		s.stats.MaxClockNS = now
	}
	s.statsMu.Unlock()
}

// ResetStats clears merged statistics (trace included).
func (d *Device) ResetStats() {
	d.devStats.ResetStats()
	d.traceMu.Lock()
	d.trace = nil
	d.traceMu.Unlock()
}
