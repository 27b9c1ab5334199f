package experiment

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCellsCoversAllIndices checks that every cell index runs exactly
// once at any worker count.
func TestRunCellsCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 37
		var hits [n]atomic.Int32
		runCells(Config{Workers: workers}, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunCellsPanicPropagates checks that a worker panic drains the pool
// and re-raises on the caller, instead of crashing the process from a
// goroutine or deadlocking.
func TestRunCellsPanicPropagates(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if ran.Load() != 8 {
			t.Fatalf("only %d/8 cells ran; a panic must not abandon queued cells", ran.Load())
		}
	}()
	runCells(Config{Workers: 4}, 8, func(i int) {
		ran.Add(1)
		if i == 3 {
			panic("boom")
		}
	})
}

// TestGridShapeAndOrder checks grid's row-major index mapping.
func TestGridShapeAndOrder(t *testing.T) {
	out := grid(Config{Workers: 4}, 3, 5, func(r, c int) int { return r*100 + c })
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	for r := range out {
		if len(out[r]) != 5 {
			t.Fatalf("row %d cols = %d", r, len(out[r]))
		}
		for c, v := range out[r] {
			if v != r*100+c {
				t.Fatalf("cell (%d,%d) = %d", r, c, v)
			}
		}
	}
}

// TestRunJobsRunsEverything checks the heterogeneous job-list entry point.
func TestRunJobsRunsEverything(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	jobs := make([]func(), 23)
	for i := range jobs {
		i := i
		jobs[i] = func() {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
		}
	}
	runJobs(Config{Workers: 5}, jobs)
	if len(seen) != len(jobs) {
		t.Fatalf("ran %d/%d jobs", len(seen), len(jobs))
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: because each
// experiment cell owns a private pmem.Device and virtual clock, tables
// produced by the parallel engine are deep-equal to the serial engine's
// at any worker count — same strings, same order. The sweep stays at one
// workload thread: multi-threaded workload cells are nondeterministic
// with EITHER engine (real goroutine interleaving through shared slabs
// perturbs the virtual-time sums), so they cannot distinguish the
// engines. Experiments that hardcode multi-thread runs (fig11, fig17) are
// excluded for the same reason.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := Config{Threads: []int{1}, Scale: 0.05, DeviceBytes: 256 << 20}
	for _, id := range []string{"fig9", "fig1a", "fig16b", "fig18", "fig14", "fig15"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial, parallel := base, base
			serial.Workers = 1
			parallel.Workers = 8
			want := Experiments[id](serial)
			got := Experiments[id](parallel)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: parallel tables differ from serial\nserial:   %+v\nparallel: %+v", id, want, got)
			}
		})
	}
}
