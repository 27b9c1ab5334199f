package crashmc

import (
	"errors"
	"fmt"
	"testing"

	"nvalloc/internal/pmem"
)

// TestTortureSweep is the deep family on every allocator: the 4 000-step
// publish-heavy trace, a clean and a torn power cut at each of its strided
// boundaries and a flip cut at every third (a sample of both with -short).
// Cuts must recover, flipped metadata must recover or be detected, nothing
// may panic.
func TestTortureSweep(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			t.Parallel()
			rep := checkFamily(t, "deep", tg.Name, partSweep|partFlip)
			if testing.Short() {
				return
			}
			if rep.Sweep.Explored < 190 || rep.Sweep.TornExplored < 190 || rep.Flip.Explored < 50 {
				t.Errorf("%d clean, %d torn and %d flip cuts, want >= 190, 190 and 50",
					rep.Sweep.Explored, rep.Sweep.TornExplored, rep.Flip.Explored)
			}
		})
	}
}

// openGuarded is OpenGuarded with a recovered panic turned into a test
// failure: a garbage image may be rejected, never crash the process.
func openGuarded(t *testing.T, tg Target, dev *pmem.Device) error {
	t.Helper()
	_, err := OpenGuarded(tg, dev)
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Errorf("%s: Open panicked: %v\n%s", tg.Name, pe.Value, pe.Stack)
	}
	return err
}

// TestOpenZeroedImage opens an all-zero device with every allocator: a
// typed corruption error, never a panic, never a "success".
func TestOpenZeroedImage(t *testing.T) {
	for _, tg := range Targets() {
		err := openGuarded(t, tg, pmem.New(pmem.Config{Size: DefaultDeviceBytes}))
		if err == nil {
			t.Fatalf("%s: opened an all-zero image", tg.Name)
		}
		if !errors.Is(err, pmem.ErrCorrupted) {
			t.Fatalf("%s: want ErrCorrupted, got %v", tg.Name, err)
		}
	}
}

// TestOpenTruncatedImage opens a device too small to hold a superblock.
func TestOpenTruncatedImage(t *testing.T) {
	for _, tg := range Targets() {
		err := openGuarded(t, tg, pmem.New(pmem.Config{Size: 4096}))
		if err == nil {
			t.Fatalf("%s: opened a 4 KiB image", tg.Name)
		}
		if !errors.Is(err, pmem.ErrCorrupted) {
			t.Fatalf("%s: want ErrCorrupted, got %v", tg.Name, err)
		}
	}
}

// TestOpenBitFlippedSuperblock flips bits of the superblock a clean
// shutdown left and requires each flip to be either harmless (a field
// outside the open path) or detected — never a panic, and never an open
// that then fails the oracle of the final boundary: what a flip cut holds
// its seeded bits to, here for every bit of one structure. One
// representative of each superblock layout (NVAlloc's and the baselines')
// gets every bit; the remaining targets, which share those layouts, get a
// deterministic sample to keep the sweep's cost bounded.
//
// The heap break is left out. It moves at run time, so the checksum does
// not cover it; extent.Rebuild heals a value that is torn, misaligned or
// out of range, and cannot tell one that is a whole number of chunks too
// high from a heap that grew: such a heap opens consistent and reports the
// extra chunks as mapped (DESIGN.md §7 "Residual risks").
func TestOpenBitFlippedSuperblock(t *testing.T) {
	if testing.Short() {
		t.Skip("superblock flip sweep is long; skipped with -short")
	}
	const superBase = 4096
	const superBytes = 128 // covers every checksummed field of both layouts
	const breakWord = 56   // sbBreak of both layouts
	exhaustive := map[string]bool{"NVAlloc-LOG": true, "PMDK": true}
	for ti, tg := range Targets() {
		stride := 1
		if !exhaustive[tg.Name] {
			stride = 7 + ti // coprime-ish offsets vary the sampled bits
		}
		t.Run(tg.Name, func(t *testing.T) {
			t.Parallel()
			rec, err := Record(tg, SweepTrace(400), RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s := &sweep{rec: rec, cfg: Config{}.withDefaults(rec), cut: FlipCut, hist: slotHistory(rec)}
			rep := newReport(tg.Name, rec.Trace.Name, FlipCut)
			last := rec.Boundaries() - 1
			cursor := rec.newCursor()
			cursor.Advance(last)
			scratch := pmem.New(pmem.Config{Size: rec.DeviceBytes})
			for bit := 0; bit < superBytes*8; bit += stride {
				if bit/64 == breakWord/8 {
					continue
				}
				cursor.MaterializeInto(scratch)
				addr := pmem.PAddr(superBase + bit/8)
				scratch.WriteU8(addr, scratch.ReadU8(addr)^(1<<(bit%8)))
				found := len(rep.Violations)
				s.verifyImage(rep, scratch, last, false, "superblock")
				for i := found; i < len(rep.Violations); i++ {
					rep.Violations[i].Detail = fmt.Sprintf("superblock bit %d flipped: %s", bit, rep.Violations[i].Detail)
				}
			}
			t.Logf("%d flips detected", rep.Detected)
			checkReport(t, rep, 0, 0)
		})
	}
}
