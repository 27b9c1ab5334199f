// Command nvstat inspects an NVAlloc heap image (the pmempool of this
// repository): it prints the superblock, per-size-class slab population
// and utilization, large-extent statistics, bookkeeping-log state and the
// live object count, either for a freshly generated demo heap or for an
// image file previously written with Device.SaveImage.
//
// Usage:
//
//	nvstat -demo                # build a demo heap and inspect it
//	nvstat -image heap.img -size 268435456
//	nvstat -image heap.img -check     # report corruption, modify nothing
//	nvstat -image heap.img -repair    # scavenge in place, rewrite image
//	nvstat -heap nvkv.heap            # inspect an nvkv server's heap file
//
// -heap loads the mmap'd device file behind `nvkv serve` (size inferred
// from the file itself); since a kill -9'd server leaves a dirty state
// flag, the open performs crash recovery before inspection, and -check /
// -repair work on heap files the same way they do on images. After the
// heap census -heap attaches the store's index and prints its key count,
// or exits 1 naming the format if an older build wrote it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"nvalloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/sizeclass"
)

func main() {
	var (
		image    = flag.String("image", "", "heap image file written by Device.SaveImage")
		heapFile = flag.String("heap", "", "nvkv heap file (direct-device mmap file; size inferred)")
		size     = flag.Uint64("size", 256<<20, "device size in bytes (must match the image)")
		demo     = flag.Bool("demo", false, "generate a demo heap instead of loading an image")
		check    = flag.Bool("check", false, "report corruption in the image without modifying it")
		repair   = flag.Bool("repair", false, "scavenge the image in place and rewrite it")
	)
	flag.Parse()

	// A direct-device heap file is byte-identical to a saved image, so
	// -heap is -image with the device sized from the file itself.
	path := *image
	if *heapFile != "" {
		if *image != "" {
			fmt.Fprintln(os.Stderr, "nvstat: -image and -heap are mutually exclusive")
			os.Exit(2)
		}
		st, err := os.Stat(*heapFile)
		if err != nil {
			fatal(err)
		}
		path = *heapFile
		*size = uint64(st.Size())
	}

	dev := nvalloc.NewDevice(nvalloc.DeviceConfig{Size: *size})
	var heap *nvalloc.Heap
	switch {
	case *demo:
		heap = buildDemo(dev)
	case path != "":
		if err := dev.LoadImage(path); err != nil {
			fatal(err)
		}
		switch {
		case *check:
			os.Exit(runCheck(dev))
		case *repair:
			heap = runRepair(dev, path)
		default:
			h, _, err := nvalloc.Open(dev, nvalloc.Options{})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("opened image %s\nrecovery:         %v\n\n", path, h.Recovery())
			heap = h
		}
	default:
		fmt.Fprintln(os.Stderr, "nvstat: need -demo, -image <file> or -heap <file>")
		os.Exit(2)
	}

	inspect(heap)
	if *heapFile != "" {
		// `nvkv serve` keeps its store's index at root slot 0. An index in
		// a layout this build does not read is reported by name
		// (*phash.FormatError) after the heap census, which does not
		// depend on it.
		st, err := nvkv.OpenStore(heap.Heap, 0, nvkv.StoreConfig{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nnvkv store:       %d keys\n", st.Len())
	}
}

// runCheck reports every problem a scavenge would repair (on a clone of
// the device — the loaded image is never modified). Exit status 0 means
// the image opens cleanly, 1 means it needs repair.
func runCheck(dev *nvalloc.Device) int {
	issues := nvalloc.Check(dev, nvalloc.Options{})
	if len(issues) == 0 {
		fmt.Println("image is clean")
		return 0
	}
	fmt.Printf("image is damaged (%d issue(s)):\n", len(issues))
	for _, s := range issues {
		fmt.Println("  -", s)
	}
	return 1
}

// runRepair scavenges the device in place and rewrites the image file,
// then returns the repaired heap for inspection.
func runRepair(dev *nvalloc.Device, image string) *nvalloc.Heap {
	h, repairs, err := nvalloc.Scavenge(dev, nvalloc.Options{})
	for _, s := range repairs {
		fmt.Println("repair:", s)
	}
	if err != nil {
		fatal(err)
	}
	if len(repairs) == 0 {
		fmt.Println("image was clean; nothing repaired")
	} else if err := dev.SaveImage(image); err != nil {
		fatal(err)
	} else {
		fmt.Printf("repaired image rewritten to %s\n\n", image)
	}
	return h
}

func buildDemo(dev *nvalloc.Device) *nvalloc.Heap {
	heap, err := nvalloc.Create(dev, nvalloc.Options{Variant: nvalloc.IC})
	if err != nil {
		fatal(err)
	}
	th := heap.NewThread()
	defer th.Close()
	for i := 0; i < 20000; i++ {
		p, err := th.Malloc(uint64(16 + i%800))
		if err != nil {
			fatal(err)
		}
		if i%3 == 0 {
			if err := th.Free(p); err != nil {
				fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := th.Malloc(256 << 10); err != nil {
			fatal(err)
		}
	}
	fmt.Println("generated demo heap (NVAlloc-IC)")
	return heap
}

func inspect(heap *nvalloc.Heap) {
	opts := heap.Options()
	fmt.Printf("variant:          %v\n", opts.Variant)
	fmt.Printf("arenas:           %d\n", opts.Arenas)
	// What the image holds, not what this open would format next: the WAL
	// stripe count from the superblock, bitmap stripe counts from the slab
	// headers.
	lay := heap.Layout()
	fmt.Printf("stripes:          %d; WAL and bookkeeping log %d-way\n", opts.Stripes, lay.WAL)
	census := heap.LayoutCensus()
	counts := make([]int, 0, len(census))
	for n := range census {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	fmt.Printf("slab bitmaps:    ")
	for _, n := range counts {
		fmt.Printf(" %d slabs %d-way", census[n], n)
	}
	if len(counts) == 0 {
		fmt.Printf(" no slabs")
	}
	fmt.Printf(" (new slabs: %d-way)\n", lay.Bitmap)
	fmt.Printf("slab morphing:    %v (SU %.0f%%)\n", opts.Morphing, opts.SU*100)
	fmt.Printf("bookkeeping:      log=%v (%d shards)\n", opts.LogBookkeeping, opts.BookShards)
	fmt.Printf("wal:              %d entries per arena\n", opts.WALEntries)
	fmt.Printf("used:             %.1f MiB (peak %.1f MiB, lease overhead %.1f MiB)\n",
		float64(heap.Used())/(1<<20), float64(heap.Peak())/(1<<20),
		float64(heap.LeaseOverhead())/(1<<20))
	splits, coalesces, grows := heap.LargeStats()
	fmt.Printf("extent ops:       %d splits, %d coalesces, %d chunk grows\n", splits, coalesces, grows)
	morphs, refusals := heap.MorphStats()
	fmt.Printf("morphs:           %d (refused candidates: %d)\n", morphs, refusals)
	if bl := heap.Blog(); bl != nil {
		fast, slow := bl.GCCounts()
		fmt.Printf("bookkeeping log:  %d live entries, %d active chunks, %d free; GC fast=%d slow=%d\n",
			bl.Live(), bl.ActiveChunks(), bl.FreeChunks(), fast, slow)
	}
	b := heap.SlabUtilization()
	fmt.Printf("slab utilization: %d slabs <30%%, %d in 30-70%%, %d >70%%\n", b[0], b[1], b[2])

	// Live-object census via the internal-collection iterator.
	type classStat struct {
		count int
		bytes uint64
	}
	perSize := map[uint64]*classStat{}
	var objects, largeObjects int
	var liveBytes uint64
	heap.Objects(func(o core.Object) bool {
		objects++
		liveBytes += o.Size
		if !o.Slab {
			largeObjects++
		}
		cs := perSize[o.Size]
		if cs == nil {
			cs = &classStat{}
			perSize[o.Size] = cs
		}
		cs.count++
		cs.bytes += o.Size
		return true
	})
	fmt.Printf("live objects:     %d (%d large), %.1f MiB payload\n\n",
		objects, largeObjects, float64(liveBytes)/(1<<20))

	var sizes []uint64
	for s := range perSize {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	fmt.Printf("%-12s %-10s %-12s\n", "size", "objects", "bytes")
	for _, s := range sizes {
		cs := perSize[s]
		fmt.Printf("%-12d %-10d %-12d\n", s, cs.count, cs.bytes)
	}
	_ = sizeclass.NumClasses()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvstat:", err)
	os.Exit(1)
}
