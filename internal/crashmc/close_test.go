package crashmc

import "testing"

// TestCloseCheckpointWitnessErasure pins the cross-arena close-window
// bug the concurrent families first exposed: Close checkpoints WAL
// rings one arena at a time, and replaying the survivors of a partial
// truncation used to free a block whose republication witness (the
// OpMallocTo for the same recycled address, in another arena's ring)
// had already been checkpointed away — recovery dangled a live root.
// The trace forces the exact shape: arena 1 retracts an extent, arena 0
// reuses its address for a new publish, and the sweep crosses every
// close-phase boundary between the two rings' checkpoints. The fix
// seals stateClosing before the first checkpoint so recovery retires
// surviving entries unapplied.
func TestCloseCheckpointWitnessErasure(t *testing.T) {
	tr := Trace{Name: "close-witness-reuse", Threads: 2}
	for s := 0; s < 6; s++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMallocTo, Slot: s, Size: 128 << 10})
	}
	tr.Ops = append(tr.Ops,
		// Arena 1 retracts slot 0; arena 0's next large publish recycles
		// the freed extent's address into slot 11.
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 0},
		Op{Kind: OpMalloc, Thread: 0, Size: 170},
		Op{Kind: OpMallocTo, Thread: 0, Slot: 11, Size: 104 << 10},
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 1},
		Op{Kind: OpMallocTo, Thread: 0, Slot: 12, Size: 149 << 10},
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 2},
		Op{Kind: OpFreeFrom, Thread: 1, Slot: 3},
	)
	for _, name := range []string{"NVAlloc-LOG", "NVAlloc-GC"} {
		t.Run(name, func(t *testing.T) {
			rec, err := Record(targetByName(t, name), tr, RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rep := Sweep(rec, PowerCut, nil, Config{TornSeed: 0xDECAF})
			checkReport(t, rep, 0, 0xDECAF)
		})
	}
}
