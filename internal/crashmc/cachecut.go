package crashmc

import (
	"fmt"
	"runtime"

	"nvalloc/internal/pmem"
)

// The cache-image cut. Every other enumeration in this package cuts power:
// the crash image is the media image, stores no flush has reached are lost.
// A process killed on a device that is a file mapping loses nothing — the
// page cache holds every store it made, flushed or not, in program order —
// so recovery must also cope with images that are ahead of the media: bits
// written under a WAL entry and not yet written back, a header rewritten
// and not yet flushed, the stores of a commit group past its last flush.
// The journal cannot reconstruct those images, so the trace is run again
// and the cache image copied out as each chosen flush completes.

// VerifyCacheCuts runs the recording's trace again and, as each flush in ks
// completes (flush k is the one that takes the media image from boundary
// k-1 to boundary k), recovers from a copy of the cache image at that
// instant and holds the result to the oracle Verify uses. What the oracle
// may assume is what it assumes of the torn image at boundary k-1: every
// operation that returned before the flush is complete, the one issuing it
// is in flight, nothing later has begun. Explored counts the cuts verified;
// ks are spread over cfg.Pool in contiguous shares, each of which runs the
// (deterministic) trace once.
func VerifyCacheCuts(rec *Recording, ks []int, cfg Config) *Report {
	cfg = cfg.withDefaults(rec)
	hist := slotHistory(rec)
	cl := newClassifier(rec)
	nChunk := 1
	if cfg.Pool != nil {
		nChunk = max(1, min(runtime.GOMAXPROCS(0), len(ks)))
	}
	parts := make([]*Report, nChunk)
	run := func(ci int) {
		part := rec.newReport("cache-cut")
		parts[ci] = part
		want := map[int]bool{}
		for _, k := range ks[ci*len(ks)/nChunk : (ci+1)*len(ks)/nChunk] {
			if k > rec.CreatedAt && k > rec.JournalBase && k < rec.Boundaries() {
				want[k] = true
			}
		}
		if len(want) == 0 {
			return
		}
		scratch := pmem.New(pmem.Config{Size: rec.DeviceBytes})
		again, err := record(rec.Target, rec.Trace, rec.opts, func(dev *pmem.Device, k int) {
			if !want[k] {
				return
			}
			fd := &rec.Journal[k-1-rec.JournalBase]
			class := cl.classify(fd)
			part.Explored++
			part.Classes[class]++
			part.Paths[rec.phase(k-1)+"@"+class]++
			scratch.Restore(dev.Bytes(0, int(dev.Size())))
			first := len(part.Violations)
			verifyImage(rec, cfg, hist, part, scratch, k-1, true, class)
			for i := first; i < len(part.Violations); i++ {
				part.Violations[i].Torn, part.Violations[i].Cache = false, true
			}
		})
		switch {
		case err != nil:
			part.addViolation(Violation{Cache: true, Detail: "running the trace again failed: " + err.Error()})
		case again.Boundaries() != rec.Boundaries():
			part.addViolation(Violation{Cache: true, Detail: fmt.Sprintf(
				"the trace is not deterministic: %d boundaries when run again, %d recorded", again.Boundaries(), rec.Boundaries())})
		}
	}
	if nChunk == 1 {
		run(0)
	} else {
		cfg.Pool(nChunk, run)
	}
	report := rec.newReport("cache-cut")
	report.Boundaries = rec.Boundaries()
	for _, part := range parts {
		report.merge(part)
	}
	return report
}

// OpFlushes returns every flush from the end of Create to the start of
// shutdown: the cuts VerifyCacheCuts can make inside the trace's operations.
func (rec *Recording) OpFlushes() []int {
	var ks []int
	for k := max(rec.CreatedAt, rec.JournalBase) + 1; k <= rec.CloseStart; k++ {
		ks = append(ks, k)
	}
	return ks
}

// EveryNth keeps every n'th boundary of ks: the thinning the short test
// runs and the scaled-down experiment runs apply to a sweep.
func EveryNth(ks []int, n int) []int {
	var out []int
	for i := 0; i < len(ks); i += n {
		out = append(out, ks[i])
	}
	return out
}
