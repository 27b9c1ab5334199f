// Command nvstat inspects an NVAlloc heap image (the pmempool of this
// repository): it prints the superblock, per-size-class slab population
// and utilization, large-extent statistics, bookkeeping-log state and the
// live object count, either for a freshly generated demo heap or for an
// image file previously written with Device.SaveImage.
//
// Usage:
//
//	nvstat -demo [-size 268435456]    # build a demo heap and inspect it
//	nvstat -image heap.img            # inspect an image
//	nvstat -image heap.img -check     # report corruption, modify nothing
//	nvstat -image heap.img -repair    # scavenge in place, rewrite image
//	nvstat -heap nvkv.heap            # inspect an nvkv server's heap file
//
// A file is named by its flag: parsing stops at a bare argument, so
// `nvstat -check heap.img` names none. A file sizes the device itself;
// -size sizes only the demo heap.
//
// -heap loads the mmap'd device file behind `nvkv serve`; since a kill
// -9'd server leaves a dirty state flag, the open performs crash recovery
// before inspection, and -check / -repair work on heap files the same way
// they do on images. After the heap census -heap attaches the store's
// index and prints its key count, or exits 1 naming the format if an older
// build wrote it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"nvalloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status instead of
// exiting, so tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		image    = fs.String("image", "", "heap image file written by Device.SaveImage")
		heapFile = fs.String("heap", "", "nvkv heap file (the direct device's mmap file)")
		size     = fs.Uint64("size", 256<<20, "device size in bytes of the -demo heap (a file sizes its own)")
		demo     = fs.Bool("demo", false, "generate a demo heap instead of loading an image")
		check    = fs.Bool("check", false, "report corruption in the image without modifying it")
		repair   = fs.Bool("repair", false, "scavenge the image in place and rewrite it")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nvstat:", err)
		return 1
	}

	// A direct-device heap file is byte-identical to a saved image, so
	// -heap is -image plus the store census. Either file sizes the device:
	// LoadImage takes no other size.
	path := *image
	if *heapFile != "" {
		if *image != "" {
			fmt.Fprintln(stderr, "nvstat: -image and -heap are mutually exclusive")
			return 2
		}
		path = *heapFile
	}
	if path != "" && !*demo {
		st, err := os.Stat(path)
		if err != nil {
			return fail(err)
		}
		*size = uint64(st.Size())
	}

	dev := nvalloc.NewDevice(nvalloc.DeviceConfig{Size: *size})
	var (
		heap *nvalloc.Heap
		err  error
	)
	switch {
	case *demo:
		heap, err = buildDemo(stdout, dev)
	case path != "":
		if err := dev.LoadImage(path); err != nil {
			return fail(err)
		}
		switch {
		case *check:
			return runCheck(stdout, dev)
		case *repair:
			heap, err = runRepair(stdout, dev, path)
		default:
			heap, _, err = nvalloc.Open(dev, nvalloc.Options{})
			if err == nil {
				fmt.Fprintf(stdout, "opened image %s\nrecovery:         %v\n\n", path, heap.Recovery())
			}
		}
	default:
		fmt.Fprintln(stderr, "nvstat: need -demo, -image <file> or -heap <file>")
		return 2
	}
	if err != nil {
		return fail(err)
	}

	inspect(stdout, heap)
	if *heapFile != "" {
		// `nvkv serve` keeps its store's index at root slot 0. An index in
		// a layout this build does not read is reported by name
		// (*phash.FormatError) after the heap census, which does not
		// depend on it.
		st, err := nvkv.OpenStore(heap.Heap, 0, nvkv.StoreConfig{})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nnvkv store:       %d keys\n", st.Len())
	}
	return 0
}

// runCheck reports every problem a scavenge would repair (on a clone of
// the device — the loaded image is never modified). Exit status 0 means
// the image opens cleanly, 1 means it needs repair.
func runCheck(w io.Writer, dev *nvalloc.Device) int {
	issues := nvalloc.Check(dev, nvalloc.Options{})
	if len(issues) == 0 {
		fmt.Fprintln(w, "image is clean")
		return 0
	}
	fmt.Fprintf(w, "image is damaged (%d issue(s)):\n", len(issues))
	for _, s := range issues {
		fmt.Fprintln(w, "  -", s)
	}
	return 1
}

// runRepair scavenges the device in place and rewrites the image file,
// then returns the repaired heap for inspection.
func runRepair(w io.Writer, dev *nvalloc.Device, image string) (*nvalloc.Heap, error) {
	h, repairs, err := nvalloc.Scavenge(dev, nvalloc.Options{})
	for _, s := range repairs {
		fmt.Fprintln(w, "repair:", s)
	}
	if err != nil {
		return nil, err
	}
	if len(repairs) == 0 {
		fmt.Fprintln(w, "image was clean; nothing repaired")
	} else if err := dev.SaveImage(image); err != nil {
		return nil, err
	} else {
		fmt.Fprintf(w, "repaired image rewritten to %s\n\n", image)
	}
	return h, nil
}

func buildDemo(w io.Writer, dev *nvalloc.Device) (*nvalloc.Heap, error) {
	heap, err := nvalloc.Create(dev, nvalloc.Options{Variant: nvalloc.IC})
	if err != nil {
		return nil, err
	}
	th := heap.NewThread()
	defer th.Close()
	for i := 0; i < 20000; i++ {
		p, err := th.Malloc(uint64(16 + i%800))
		if err != nil {
			return nil, err
		}
		if i%3 == 0 {
			if err := th.Free(p); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := th.Malloc(256 << 10); err != nil {
			return nil, err
		}
	}
	fmt.Fprintln(w, "generated demo heap (NVAlloc-IC)")
	return heap, nil
}

func inspect(w io.Writer, heap *nvalloc.Heap) {
	opts := heap.Options()
	fmt.Fprintf(w, "variant:          %v\n", opts.Variant)
	fmt.Fprintf(w, "arenas:           %d\n", opts.Arenas)
	// What the image holds, not what this open would format next: the WAL
	// stripe count from the superblock, bitmap stripe counts from the slab
	// headers.
	lay := heap.Layout()
	fmt.Fprintf(w, "stripes:          %d; WAL and bookkeeping log %d-way\n", opts.Stripes, lay.WAL)
	census := heap.LayoutCensus()
	counts := make([]int, 0, len(census))
	for n := range census {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	fmt.Fprintf(w, "slab bitmaps:    ")
	for _, n := range counts {
		fmt.Fprintf(w, " %d slabs %d-way", census[n], n)
	}
	if len(counts) == 0 {
		fmt.Fprintf(w, " no slabs")
	}
	fmt.Fprintf(w, " (new slabs: %d-way)\n", lay.Bitmap)
	fmt.Fprintf(w, "slab morphing:    %v (SU %.0f%%)\n", opts.Morphing, opts.SU*100)
	fmt.Fprintf(w, "bookkeeping:      log=%v\n", opts.LogBookkeeping)
	fmt.Fprintf(w, "wal:              %d entries per arena\n", opts.WALEntries)
	kib := func(b uint64) float64 { return float64(b) / (1 << 10) }
	m := heap.Metadata()
	fmt.Fprintf(w, "metadata:         %.1f KiB in service of %.1f KiB reserved: superblock %.1f KiB, WAL rings %d of %d in service (%.1f KiB each), bookkeeping log %.1f of %.1f KiB to its break\n",
		kib(m.InService()), kib(m.Reserved()), kib(m.Superblock), m.RingsInService, m.Rings, kib(m.RingBytes), kib(m.LogBytes), kib(m.LogRegion))
	dirty, retained := heap.FreeBytes()
	fmt.Fprintf(w, "used:             %.1f MiB (peak %.1f MiB, lease overhead %.1f MiB); free extents %.1f MiB dirty (in used), %.1f MiB retained\n",
		float64(heap.Used())/(1<<20), float64(heap.Peak())/(1<<20),
		float64(heap.LeaseOverhead())/(1<<20), float64(dirty)/(1<<20), float64(retained)/(1<<20))
	splits, coalesces, grows := heap.LargeStats()
	fmt.Fprintf(w, "extent ops:       %d splits, %d coalesces, %d chunk grows\n", splits, coalesces, grows)
	morphs, refusals := heap.MorphStats()
	fmt.Fprintf(w, "morphs:           %d (refused candidates: %d)\n", morphs, refusals)
	if bl := heap.Blog(); bl != nil {
		fast, slow := bl.GCCounts()
		fmt.Fprintf(w, "bookkeeping log:  %d live entries, %d active chunks, %d free; GC fast=%d slow=%d\n",
			bl.Live(), bl.ActiveChunks(), bl.FreeChunks(), fast, slow)
	}
	b := heap.SlabUtilization()
	fmt.Fprintf(w, "slab utilization: %d slabs <30%%, %d in 30-70%%, %d >70%%\n", b[0], b[1], b[2])

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
	fmt.Fprintf(w, "live objects:     %d (%d large), %.1f MiB payload\n\n",
		objects, largeObjects, float64(liveBytes)/(1<<20))

	var sizes []uint64
	for s := range perSize {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	fmt.Fprintf(w, "%-12s %-10s %-12s\n", "size", "objects", "bytes")
	for _, s := range sizes {
		cs := perSize[s]
		fmt.Fprintf(w, "%-12d %-10d %-12d\n", s, cs.count, cs.bytes)
	}
}
