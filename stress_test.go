// Concurrent stress tests: hammer malloc/free (with size churn that
// drives slab morphing) from many goroutines on every allocator. The
// point is not the numbers but the data-race and crash surface — run
// with `go test -race`. The lock-free page map means Free's slab lookup
// races with concurrent slab publication and retirement by design; the
// race detector checks the atomic publish protocol holds up.
package nvalloc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/experiment"
	"nvalloc/internal/pmem"
)

// stressAllocators covers the three NVAlloc variants and the five
// baselines — every heap implementation in the repository.
var stressAllocators = []string{
	"PMDK", "nvm_malloc", "PAllocator", "Makalu", "Ralloc",
	"NVAlloc-LOG", "NVAlloc-GC", "NVAlloc-IC",
}

func TestConcurrentStressAllAllocators(t *testing.T) {
	stressAll(t, experiment.OpenHeap)
}

// TestConcurrentStressAllAllocatorsReal is the same stress run on the
// direct device. The simulated device serializes every access behind
// per-line locks, which can hide ordering races between allocator-level
// atomics; real mode removes that accidental synchronization, so this is
// the variant where `go test -race` exercises the allocators' own
// publish protocols at full concurrency. Standing test: runs in every
// `go test ./...`, not just under -race.
func TestConcurrentStressAllAllocatorsReal(t *testing.T) {
	stressAll(t, func(name string, cfg experiment.Config) (alloc.Heap, error) {
		dev, err := pmem.NewDirect(pmem.DirectConfig{Size: cfg.DeviceBytes})
		if err != nil {
			return nil, err
		}
		return experiment.OpenHeapOn(dev, name)
	})
}

func stressAll(t *testing.T, open func(name string, cfg experiment.Config) (alloc.Heap, error)) {
	ops := 4000
	if testing.Short() {
		ops = 600
	}
	for _, name := range stressAllocators {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := experiment.Config{DeviceBytes: 128 << 20}
			h, err := open(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 4
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- stressWorker(h.NewThread(), rand.New(rand.NewSource(int64(w))), ops)
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// stressWorker mixes small and large malloc/free with phases of
// size-class churn: fill a class, free most of it, then allocate a
// different class so partially-empty slabs become morph candidates and
// old-class blocks get freed through the slow path.
func stressWorker(th interface {
	Malloc(size uint64) (pmem.PAddr, error)
	Free(addr pmem.PAddr) error
	Close()
}, rng *rand.Rand, ops int) error {
	defer th.Close()
	classes := []uint64{32, 64, 96, 192, 512, 1024}
	var live []pmem.PAddr
	for i := 0; i < ops; i++ {
		switch {
		case len(live) > 0 && (rng.Intn(3) == 0 || len(live) > 256):
			k := rng.Intn(len(live))
			p := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := th.Free(p); err != nil {
				return fmt.Errorf("free %#x: %w", p, err)
			}
		case rng.Intn(64) == 0:
			// Occasional extent keeps the large path in the mix.
			p, err := th.Malloc(32 << 10)
			if err != nil {
				return fmt.Errorf("malloc large: %w", err)
			}
			live = append(live, p)
		default:
			size := classes[(i/97)%len(classes)] // phase through classes
			p, err := th.Malloc(size)
			if err != nil {
				return fmt.Errorf("malloc %d: %w", size, err)
			}
			live = append(live, p)
		}
		// Periodically drop most of the live set so slab usage sinks
		// below the SU threshold and morphing can fire.
		if i > 0 && i%701 == 0 {
			keep := len(live) / 10
			for len(live) > keep {
				p := live[len(live)-1]
				live = live[:len(live)-1]
				if err := th.Free(p); err != nil {
					return fmt.Errorf("churn free %#x: %w", p, err)
				}
			}
		}
	}
	for _, p := range live {
		if err := th.Free(p); err != nil {
			return fmt.Errorf("final free %#x: %w", p, err)
		}
	}
	return nil
}
