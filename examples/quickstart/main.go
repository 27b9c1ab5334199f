// Quickstart: create a simulated persistent memory device, format it as
// an NVAlloc heap, allocate and free objects, and inspect the flush
// statistics that drive the paper's results.
package main

import (
	"fmt"
	"log"

	"nvalloc"
)

func main() {
	// A 256 MiB simulated persistent memory device (ADR mode: data is
	// durable only after an explicit flush, as on real Optane).
	dev := nvalloc.NewDevice(nvalloc.DeviceConfig{Size: 256 << 20})

	// Format it as an NVAlloc-LOG heap (strongly consistent variant).
	heap, err := nvalloc.Create(dev, nvalloc.Options{Variant: nvalloc.LOG})
	if err != nil {
		log.Fatal(err)
	}

	// Each goroutine gets its own Thread handle (with its own tcache).
	th := heap.NewThread()

	// Small allocations come from 64 KiB slabs with interleaved bitmaps.
	small, err := th.Malloc(100)
	if err != nil {
		log.Fatal(err)
	}
	dev.WriteU64(small, 0xC0FFEE)
	fmt.Printf("small object at %#x (100 B -> rounded to its size class)\n", small)

	// Large allocations (> 16 KiB) go through the extent allocator and
	// the log-structured bookkeeping log.
	big, err := th.Malloc(1 << 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("large extent at %#x (1 MiB)\n", big)

	// Crash-safe allocation: MallocTo persists the new address into a
	// root slot, so the object is reachable after a restart.
	durable, err := nvalloc.MallocTo(th, heap.RootSlot(0), 256)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durable object at %#x, anchored in root slot 0\n", durable)

	// Free everything.
	for _, p := range []nvalloc.PAddr{small, big} {
		if err := th.Free(p); err != nil {
			log.Fatal(err)
		}
	}
	if err := nvalloc.FreeFrom(th, heap.RootSlot(0)); err != nil {
		log.Fatal(err)
	}

	th.Close()
	stats := dev.Stats()
	fmt.Printf("\nflush profile: %d flushes, %d reflushes (%.1f%%), %d sequential, %d random\n",
		stats.Flushes, stats.Reflushes, 100*stats.ReflushRatio(),
		stats.SeqFlushes, stats.RandFlushes)
	fmt.Printf("virtual time spent: %.2f us\n", float64(stats.MaxClockNS)/1e3)

	if err := heap.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("clean shutdown complete")
}
