// Command benchmark is the repository's one benchmark: four named
// workloads, each run through the same five phases (set-up, closed
// loop, open loop, crash, virtual-time twin), printing every metric by
// name with its unit and checking every output. README.md defines the
// workloads and metrics; BENCHMARK.json at the repository root is the
// contract the driver runs it by.
//
//	bash benchmark/run.sh --workload kv-churn --seed 1 --seconds 12 --trace 0
//	go run . -compare a.jsonl b.jsonl        (from this directory)
//
// Linux only: CPU and memory of the server child come from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// header records what two result files must share to be comparable.
type header struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Conns      int     `json:"conns"`
	GoVersion  string  `json:"go_version"`
	HeapDir    string  `json:"heap_dir"`
	HeapFS     string  `json:"heap_fs"`
	StreamHash string  `json:"stream_hash"`
	// Persistence says in words what the wall-clock numbers leave out.
	Persistence string `json:"persistence"`
}

const persistenceCaveat = "every wall-clock metric runs on DirectDev, whose flush is a counter increment: " +
	"only sim_ns_per_op and sim_flushes_per_op carry the cost of persistence"

// record is one line of an -out file.
type record struct {
	Header  header                 `json:"header"`
	Result  result                 `json:"result"`
	Metrics map[string]metricValue `json:"all_metrics"`
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-%#x", st.Type)
}

// buildNvkv compiles cmd/nvkv when no binary was supplied. Its time is
// printed on its own and is no part of setup_s.
func buildNvkv(workDir string) (string, error) {
	bin := filepath.Join(workDir, "nvkv")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "nvalloc/cmd/nvkv")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build nvalloc/cmd/nvkv (run from the benchmark directory, or pass -nvkv): %w", err)
	}
	fmt.Printf("compile_nvkv_s %.3f\n", time.Since(start).Seconds())
	return bin, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workloadName := flag.String("workload", "", "kv-read, kv-churn, kv-large or alloc-larson")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs are a pure function of it")
	seconds := flag.Float64("seconds", 15, "measured time, split across the timed phases")
	trace := flag.Int("trace", 0, "1 runs the per-layer ladder and reports the per-layer metrics")
	nvkvBin := flag.String("nvkv", "", "path to a built cmd/nvkv (default: build it)")
	workDir := flag.String("work-dir", ".bench_build/work", "scratch directory for heap files; removed on exit")
	outPath := flag.String("out", "", "append this run's record to a JSON-lines file")
	traceOut := flag.String("trace-out", "", "write the traced run's spans here")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		return 2
	}

	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// Never more connections or goroutines than cores.
	conns := min(runtime.NumCPU(), 4)
	// Every stream starts from its seed times the very constant splitmix
	// steps by, so with the flag's value as it is seed n+1 would replay
	// seed n's streams one op later. One mixing step makes neighbouring
	// seeds unrelated workloads.
	mixed := splitmix(*seed)
	r := &run{w: w, seed: mixed.next(), seconds: *seconds, conns: conns, trace: *trace != 0,
		workDir: dir, rep: newReport(), correct: true, traceOut: *traceOut}
	hdr := header{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Conns: conns,
		GoVersion: runtime.Version(), HeapDir: dir, HeapFS: fsType(dir),
		Persistence: persistenceCaveat,
	}
	if err := r.prepare(&hdr, *nvkvBin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	hj, _ := json.Marshal(hdr)
	fmt.Printf("header %s\n", hj)

	start := time.Now()
	if w.service {
		err = r.runService()
		if err == nil {
			err = r.simTwin(r.simStore)
			r.lap("sim twin")
		}
		if err == nil && r.trace {
			err = r.ladder()
			r.lap("ladder")
		}
	} else {
		err = r.runLarson()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	failed := r.counts.failed()
	r.rep.set("client.failed_ops_ratio", float64(failed)/float64(max(r.counts.attempted, 1)))
	r.rep.print(os.Stdout)
	fmt.Printf("run_wall_s %.3f\n", time.Since(start).Seconds())

	list := endToEnd
	if r.trace {
		list = perLayer
	}
	line, err := r.rep.resultLine(list, r.correct, r.counts.attempted, failed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, hdr, line, r.rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Printf("%s\n", line)
	if !r.correct {
		return 1
	}
	return 0
}

// prepare builds what every phase shares: the value pool, the zipf
// table and (for service workloads) the server binary.
func (r *run) prepare(hdr *header, nvkvBin string) error {
	var err error
	if r.pool, err = newValuePool(r.w.maxValue()); err != nil {
		return err
	}
	if r.w.service {
		r.zipf = newZipf(r.w.universe, r.w.zipf)
		hdr.StreamHash = fmt.Sprintf("%016x", streamHash(r.w, r.zipf, r.seed, r.conns, 10_000))
		if nvkvBin == "" {
			if nvkvBin, err = buildNvkv(r.workDir); err != nil {
				return err
			}
		}
		if r.nvkvBin, err = filepath.Abs(nvkvBin); err != nil {
			return err
		}
	} else {
		hdr.StreamHash = fmt.Sprintf("%016x", larsonStreamHash(r.seed, r.conns, 10_000))
	}
	return nil
}

func appendRecord(path string, hdr header, line []byte, rep *report) error {
	rec := record{Header: hdr, Metrics: map[string]metricValue{}}
	if err := json.Unmarshal(line, &rec.Result); err != nil {
		return err
	}
	for name, v := range rep.values {
		rec.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
