package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json (a self-test holds the
// two lists together). bound is the share of the baseline median by
// which an end-to-end metric may worsen; per-layer metrics have none.
// README.md says which end-to-end metric on which workload each layer
// metric is predicted to move.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// wallClock is how many entries at the head of perLayer are the raw
// wall-clock figures that -compare reports beside the gated metrics.
const wallClock = 4

// endToEnd lists what a user of the system sees, in the forms that
// repeat on a shared sandbox: counts, virtual time, sizes, and CPU cost
// and set-up time relative to the benchmark's own reference work. The
// raw wall-clock figures head the per-layer list (README.md says why).
// Every wall-clock figure is measured on DirectDev, whose flush is a
// counter increment: only the sim_* entries carry the cost of
// persistence.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_rel_per_op", unit: "ratio", better: "lower", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.18},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.20},
	{name: "sim_ns_per_op", unit: "virtual_ns", better: "lower", bound: 0.07},
	{name: "sim_flushes_per_op", unit: "count", better: "lower", bound: 0.07},
	{name: "sim_recover_us", unit: "virtual_us", better: "lower", bound: 0.07},
}

var perLayer = []metricDef{
	// The raw wall-clock figures: what a user sees, but not steady enough
	// on a shared sandbox to gate on. wallClock names them for -compare.
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "lat_p50_us", unit: "us", better: "lower"},
	{name: "recovery_ms", unit: "ms", better: "lower"},

	{name: "client.failed_ops_ratio", unit: "ratio", better: "lower"},
	{name: "client.lat_p99_us", unit: "us", better: "lower"},
	{name: "client.lat_p999_us", unit: "us", better: "lower"},
	{name: "client.rate_ok_per_s", unit: "1/s", better: "higher"},
	{name: "client.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "client.ops_per_s_median", unit: "1/s", better: "higher"},
	{name: "client.slice_iqr_ratio", unit: "ratio", better: "lower"},
	{name: "client.inflight_at_kill", unit: "count", better: "higher"},

	{name: "resp.parse_ns_per_cmd", unit: "ns", better: "lower"},
	{name: "resp.reply_ns_per_cmd", unit: "ns", better: "lower"},
	{name: "resp.go_allocs_per_cmd", unit: "count", better: "lower"},
	{name: "resp.go_bytes_per_cmd", unit: "B", better: "lower"},

	{name: "server.pipe_self_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.tcp_self_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.sys_cpu_share", unit: "ratio", better: "lower"},
	{name: "server.go_allocs_per_op", unit: "count", better: "lower"},

	{name: "store.get_ns", unit: "ns", better: "lower"},
	{name: "store.set_ns", unit: "ns", better: "lower"},
	{name: "store.del_ns", unit: "ns", better: "lower"},
	{name: "store.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "store.set_ns_nt", unit: "ns", better: "lower"},
	{name: "store.hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.copy_bytes_per_op", unit: "B", better: "lower"},

	{name: "phash.get_ns", unit: "ns", better: "lower"},
	{name: "phash.put_ns", unit: "ns", better: "lower"},
	{name: "phash.delete_ns", unit: "ns", better: "lower"},
	{name: "phash.load_factor", unit: "ratio", better: "lower"},

	{name: "core.malloc_ns", unit: "ns", better: "lower"},
	{name: "core.free_ns", unit: "ns", better: "lower"},
	{name: "core.pair_ns_nt", unit: "ns", better: "lower"},
	{name: "core.remote_free_ns", unit: "ns", better: "lower"},
	{name: "core.large_malloc_ns", unit: "ns", better: "lower"},
	{name: "core.large_free_ns", unit: "ns", better: "lower"},

	{name: "tcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "tcache.refills_per_kop", unit: "count", better: "lower"},
	{name: "slab.creates_per_kop", unit: "count", better: "lower"},
	{name: "slab.morphs", unit: "count", better: "higher"},
	{name: "slab.low_util_share", unit: "ratio", better: "lower"},
	{name: "extent.splits_per_kop", unit: "count", better: "lower"},
	{name: "extent.coalesces_per_kop", unit: "count", better: "lower"},
	{name: "extent.lease_overhead_bytes", unit: "B", better: "lower"},
	{name: "blog.gc_steps_per_kop", unit: "count", better: "lower"},

	{name: "pmem.flushes_per_op", unit: "count", better: "lower"},
	{name: "pmem.fences_per_op", unit: "count", better: "lower"},
	{name: "pmem.sim_reflush_ratio", unit: "ratio", better: "lower"},
	{name: "pmem.sim_seq_flush_ratio", unit: "ratio", better: "higher"},
	{name: "pmem.sim_meta_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "pmem.sim_search_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "pmem.sim_fence_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "pmem.sim_lock_wait_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "pmem.sim_bank_wait_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "pmem.sim_other_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "walog.sim_ns_per_op", unit: "virtual_ns", better: "lower"},
	{name: "walog.flushes_per_op", unit: "count", better: "lower"},

	{name: "recover.heap_open_ms", unit: "ms", better: "lower"},
	{name: "recover.store_open_ms", unit: "ms", better: "lower"},
	{name: "recover.keys", unit: "count", better: "lower"},
	{name: "recover.exec_to_listen_ms", unit: "ms", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// report collects one run's numbers. Everything set is printed by name
// with its unit; the result line carries only the metrics of the list
// the run was asked for.
type report struct {
	values map[string]float64
	notes  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// print writes every collected value, listed metrics first and in list
// order, then any extra diagnostics by name.
func (r *report) print(w io.Writer) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "%-32s %16.6g %s\n", d.name, v, d.unit)
				seen[d.name] = true
			}
		}
	}
	var extra []string
	for name := range r.values {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-32s %16.6g\n", name, r.values[name])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine selects the metrics of list from the report. A metric the
// run did not produce is an error: the contract wants every one.
func (r *report) resultLine(list []metricDef, correct bool, attempted, failed uint64) ([]byte, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range list {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}
