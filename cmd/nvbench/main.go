// Command nvbench regenerates the tables and figures of the NVAlloc
// paper's evaluation on the simulated persistent-memory device.
//
// Usage:
//
//	nvbench -list
//	nvbench -exp fig9 [-threads 1,2,4,8,16] [-scale 1.0] [-out results/]
//	nvbench -exp all
//
// Text tables go to stdout; figures with raw series (fig2) additionally
// write CSV files under -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"nvalloc/internal/experiment"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID (see -list) or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		scale    = flag.Float64("scale", 1.0, "operation-count scale factor")
		devMiB   = flag.Uint64("dev", 512, "simulated device size in MiB")
		out      = flag.String("out", "", "directory for CSV series (optional)")
		parallel = flag.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nvbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nvbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nvbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "nvbench:", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nvbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nvbench:", err)
			}
		}()
	}

	if *list {
		for _, id := range experiment.Names() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "nvbench: -exp required (use -list to enumerate); e.g. nvbench -exp fig9")
		os.Exit(2)
	}

	var ths []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "nvbench: bad -threads %q\n", *threads)
			os.Exit(2)
		}
		ths = append(ths, n)
	}
	cfg := experiment.Config{Threads: ths, Scale: *scale, DeviceBytes: *devMiB << 20, Workers: *parallel}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.Names()
	}
	var failures []string
	for _, id := range ids {
		run, ok := experiment.Experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "nvbench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables := run(cfg)
		for ti, t := range tables {
			t.Print(os.Stdout)
			failures = append(failures, t.Failures...)
			if *out == "" {
				continue
			}
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "nvbench:", err)
				os.Exit(1)
			}
			// Every table is exported as CSV for plotting; raw series
			// (Figure 2's scatter) keep their own files.
			write := func(name string, rows []string) {
				path := filepath.Join(*out, name+".csv")
				if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "nvbench:", err)
					os.Exit(1)
				}
				fmt.Printf("  wrote %s (%d rows)\n", path, len(rows))
			}
			write(fmt.Sprintf("%s_table%d", id, ti), t.CSVRows())
			for name, rows := range t.CSV {
				write(name, rows)
			}
		}
		fmt.Printf("\n[%s completed in %.1fs wall time]\n", id, time.Since(start).Seconds())
	}
	if len(failures) > 0 {
		// A table failed the checks its experiment holds it to (crashmc:
		// a failed recording, coverage, a violation or a shape counter).
		fmt.Fprintf(os.Stderr, "nvbench: regression:\n  %s\n", strings.Join(failures, "\n  "))
		os.Exit(1)
	}
}
