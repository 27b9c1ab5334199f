package main

import (
	"strings"
	"testing"

	"nvalloc/internal/traffic"
)

// faultyRun connects a two-connection run to a fake server that has
// been told to misbehave once, preloads four keys per shard and returns
// the pieces a test drives.
func faultyRun(t *testing.T, arm func(f *fakeServer)) (*run, *env) {
	t.Helper()
	w := workloads[0]
	pool, err := newValuePool(w.maxValue())
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeServer(t)
	r := &run{w: &w, seed: 1, conns: 2, pool: pool, rep: newReport(), correct: true}
	e := &env{srv: &server{addr: f.addr()}, model: make(model, w.universe)}
	for i := 0; i < r.conns; i++ {
		e.clients = append(e.clients, newClient(i, r.conns, pool, e.model))
	}
	if err := e.dialAll(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, c := range e.clients {
			c.close()
		}
	})
	for _, c := range e.clients {
		var ops []op
		for k := uint64(c.id); k < 8; k += 2 {
			ops = append(ops, w.preloadOp(1, k))
		}
		if _, err := c.batch(ops, 0); err != nil {
			t.Fatal(err)
		}
	}
	r.collect(e, "preload")
	if !r.correct {
		t.Fatalf("preload against a correct server failed: %v", r.violations)
	}
	arm(f)
	return r, e
}

func key(k uint64) string { return traffic.KeyName(k) }

// TestOracleFalsifiable breaks the server in the three ways the
// benchmark exists to catch and checks that each one turns the run
// incorrect (which is what makes the process exit non-zero), through
// the reply check and through the durability check.
func TestOracleFalsifiable(t *testing.T) {
	set := func(k uint64, poolEntry int) op {
		return op{kind: traffic.OpSet, key: k, size: 100, pool: poolEntry}
	}
	get := func(k uint64) op { return op{kind: traffic.OpGet, key: k} }
	del := func(k uint64) op { return op{kind: traffic.OpDel, key: k} }

	cases := []struct {
		name string
		arm  func(f *fakeServer)
		// ops run on connection 0, which owns the even keys.
		ops []op
		// replyWant is found in the reply-check violation; durWant in
		// the durability violation. Empty means that check must pass.
		replyWant, durWant string
	}{
		{
			name: "a correct server passes",
			arm:  func(f *fakeServer) {},
			ops:  []op{set(2, 9), get(2), del(4), get(4), get(1)},
		},
		{
			name:      "dropped SET, read back",
			arm:       func(f *fakeServer) { f.dropSet = key(2) },
			ops:       []op{set(2, 9), get(2)},
			replyWant: "wrong value",
			durWant:   "acknowledged SET corrupted",
		},
		{
			name:    "dropped SET, never read",
			arm:     func(f *fakeServer) { f.dropSet = key(2) },
			ops:     []op{set(2, 9)},
			durWant: "acknowledged SET corrupted",
		},
		{
			name:      "flipped payload byte on another shard's key",
			arm:       func(f *fakeServer) { f.flipGet = key(1) },
			ops:       []op{get(1)},
			replyWant: "corrupt value",
		},
		{
			name:      "resurrected DEL, read back",
			arm:       func(f *fakeServer) { f.keepDel = key(4) },
			ops:       []op{del(4), get(4)},
			replyWant: "resurrected",
			durWant:   "acknowledged DEL violated",
		},
		{
			name:    "resurrected DEL, never read",
			arm:     func(f *fakeServer) { f.keepDel = key(4) },
			ops:     []op{del(4)},
			durWant: "acknowledged DEL violated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, e := faultyRun(t, tc.arm)
			if _, err := e.clients[0].batch(tc.ops, 0); err != nil {
				t.Fatal(err)
			}
			failed := e.clients[0].counts.failed()
			r.collect(e, "closed loop")
			if tc.replyWant == "" {
				if !r.correct {
					t.Fatalf("reply check failed: %v", r.violations)
				}
			} else {
				if r.correct || failed == 0 || r.counts.failed() == 0 {
					t.Fatalf("reply check passed (failed ops %d): the fault went unseen", failed)
				}
				if !strings.Contains(r.violations[0], tc.replyWant) {
					t.Errorf("violation %q does not mention %q", r.violations[0], tc.replyWant)
				}
			}

			_, _, err := r.verifyAcked(e, false)
			switch {
			case tc.durWant == "" && err != nil:
				t.Fatalf("durability check failed: %v", err)
			case tc.durWant != "" && err == nil:
				t.Fatal("durability check passed: the fault went unseen")
			case tc.durWant != "" && !strings.Contains(err.Error(), tc.durWant):
				t.Errorf("durability error %q does not mention %q", err, tc.durWant)
			}
		})
	}
}
