package crashmc

import "testing"

// TestFenceElisionTraceShape pins the structural properties the family's
// coverage argument rests on: a cross-arena burst long enough to trip
// the automatic remote drain (> 16 buffered frees) plus an explicit
// flush for the remainder, and enough same-thread frees to overflow a
// tcache into the magazine path.
func TestFenceElisionTraceShape(t *testing.T) {
	tr := FenceElisionTrace(7)
	if tr.Threads != 2 {
		t.Fatalf("threads = %d, want 2 (cross-arena frees need a second handle)", tr.Threads)
	}
	crossFrees, flushes, frees := 0, 0, 0
	for _, op := range tr.Ops {
		switch op.Kind {
		case OpFree:
			frees++
			if op.Thread == 1 && tr.Ops[op.Ref].Thread == 0 {
				crossFrees++
			}
		case OpFlush:
			flushes++
		}
	}
	if crossFrees <= 16 {
		t.Errorf("cross-arena frees = %d, want > 16 to trip the automatic batch drain", crossFrees)
	}
	if flushes == 0 {
		t.Error("no explicit flush: the trailing drain window is never opened")
	}
	if frees-crossFrees < 12 {
		t.Errorf("same-thread frees = %d, want >= 12 to exercise merged-fence frees and tcache overflow", frees-crossFrees)
	}
}
