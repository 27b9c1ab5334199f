package nvalloc

import (
	"math/rand"
	"strings"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/experiment"
	"nvalloc/internal/pmem"
)

// TestModeEquivalence is the differential check between the two execution
// modes: at one thread, the simulated device and the direct device must
// produce bit-identical allocation behaviour — the same address for every
// Malloc in a deterministic script, and the same Used/Peak accounting.
// The modes differ only in how time and flushes are charged; if an
// address ever diverges, device state (Mode/EADR/Size or the layout
// derived from them) has leaked into an allocation decision and the
// wall-clock numbers no longer describe the simulated allocator. Time
// itself is one input the modes do not share: free-extent decay ages by
// the device's clock, virtual on one and the wall clock on the other. The
// script spans at most a few virtual milliseconds, inside one 50 ms decay
// epoch, so the direct device runs on a stopped clock: neither heap
// decays, and both see the same history.
func TestModeEquivalence(t *testing.T) {
	cfg := experiment.Config{DeviceBytes: 128 << 20}
	for _, name := range stressAllocators {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sim, err := experiment.OpenHeap(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := pmem.NewDirect(pmem.DirectConfig{Size: cfg.DeviceBytes, Clock: func() int64 { return 0 }})
			if err != nil {
				t.Fatal(err)
			}
			dir, err := experiment.OpenHeapOn(dev, name)
			if err != nil {
				t.Fatal(err)
			}
			simAddrs := modeScript(t, sim)
			dirAddrs := modeScript(t, dir)
			if len(simAddrs) != len(dirAddrs) {
				t.Fatalf("op count diverged: simulated %d, direct %d", len(simAddrs), len(dirAddrs))
			}
			for i := range simAddrs {
				if simAddrs[i] != dirAddrs[i] {
					t.Fatalf("address %d diverged: simulated %#x, direct %#x", i, simAddrs[i], dirAddrs[i])
				}
			}
			if s, d := sim.Used(), dir.Used(); s != d {
				t.Fatalf("Used diverged: simulated %d, direct %d", s, d)
			}
			if s, d := sim.Peak(), dir.Peak(); s != d {
				t.Fatalf("Peak diverged: simulated %d, direct %d", s, d)
			}
		})
	}
}

// TestVirtualTimeTablesGolden pins a deterministic virtual-time table to
// the output captured before the device-interface refactor (verified
// bit-identical across the pre/post trees): any drift means the real-mode
// work moved a flush or a fence in the simulation, which the execution-
// mode split promises never to do. fig1a is all single-threaded cells, so
// it is bit-stable under any scheduler and any engine worker count.
func TestVirtualTimeTablesGolden(t *testing.T) {
	const golden = `
== fig1a: Ratio of cache line reflushes vs regular flushes (1 thread) ==
  benchmark     allocator   reflush%  flush%
  Threadtest    PMDK        66.5%     33.5%
  Threadtest    nvm_malloc  74.8%     25.2%
  Threadtest    PAllocator  70.9%     29.1%
  Prod-con      PMDK        66.6%     33.4%
  Prod-con      nvm_malloc  74.9%     25.1%
  Prod-con      PAllocator  74.6%     25.4%
  Shbench       PMDK        41.1%     58.9%
  Shbench       nvm_malloc  37.3%     62.7%
  Shbench       PAllocator  30.7%     69.3%
  Larson-small  PMDK        41.9%     58.1%
  Larson-small  nvm_malloc  38.5%     61.5%
  Larson-small  PAllocator  33.2%     66.8%
`
	cfg := experiment.Config{Threads: []int{1}, Scale: 0.2}
	tables := experiment.Experiments["fig1a"](cfg)
	if len(tables) != 1 {
		t.Fatalf("fig1a produced %d tables, want 1", len(tables))
	}
	var buf strings.Builder
	tables[0].Print(&buf)
	// Print pads every cell to column width; compare modulo the trailing
	// padding so the golden stays readable in source.
	trim := func(s string) string {
		lines := strings.Split(s, "\n")
		for i := range lines {
			lines[i] = strings.TrimRight(lines[i], " ")
		}
		return strings.Join(lines, "\n")
	}
	if got := trim(buf.String()); got != golden {
		t.Errorf("fig1a table drifted from the pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// modeScript runs a deterministic single-threaded malloc/free mix (small
// classes, extents, churn phases that trigger morphing) and returns every
// address Malloc handed out, in order.
func modeScript(t *testing.T, h alloc.Heap) []pmem.PAddr {
	t.Helper()
	th := h.NewThread()
	defer th.Close()
	rng := rand.New(rand.NewSource(7))
	classes := []uint64{32, 64, 96, 192, 512, 1024, 4096}
	var (
		addrs []pmem.PAddr
		live  []pmem.PAddr
	)
	for i := 0; i < 3000; i++ {
		switch {
		case len(live) > 0 && (rng.Intn(3) == 0 || len(live) > 200):
			k := rng.Intn(len(live))
			p := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := th.Free(p); err != nil {
				t.Fatalf("free %#x: %v", p, err)
			}
		case rng.Intn(48) == 0:
			p, err := th.Malloc(40 << 10)
			if err != nil {
				t.Fatalf("malloc extent: %v", err)
			}
			addrs = append(addrs, p)
			live = append(live, p)
		default:
			size := classes[(i/83)%len(classes)]
			p, err := th.Malloc(size)
			if err != nil {
				t.Fatalf("malloc %d: %v", size, err)
			}
			addrs = append(addrs, p)
			live = append(live, p)
		}
		if i > 0 && i%601 == 0 {
			keep := len(live) / 8
			for len(live) > keep {
				p := live[len(live)-1]
				live = live[:len(live)-1]
				if err := th.Free(p); err != nil {
					t.Fatalf("churn free %#x: %v", p, err)
				}
			}
		}
	}
	return addrs
}
