package crashmc

import "testing"

// TestCloseCheckpointWitnessErasure pins the cross-arena close-window bug
// the concurrent families first exposed (closeWitnessTrace): every
// boundary of the close-witness row, clean and torn, on NVAlloc-LOG and
// -GC, with cache-image and flip cuts.
func TestCloseCheckpointWitnessErasure(t *testing.T) {
	for _, name := range []string{"NVAlloc-LOG", "NVAlloc-GC"} {
		t.Run(name, func(t *testing.T) {
			checkFamily(t, "close-witness", name, partAll)
		})
	}
}
