// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the outputs, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"matrix_s": {"value": 6.4, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records spans around every call it makes into a layer,
// runs the layer probes, and reports the per-layer metrics instead.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of slipd sees.
// Every workload reports every one of them; README.md gives each its
// meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"matrix_s", "s"},
	{"sim_mref_per_s", "mref/s"},
	{"slip_gain_pct", "%"},
	{"peak_rss_mb", "MiB"},
	{"miss_ms_p50", "ms"},
	{"miss_ms_p90", "ms"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p99", "ms"},
	{"campaign_cells_per_s", "cells/s"},
}

// perLayer are the traced run's metrics, grouped by the layer they
// attribute. A layer a workload does not pass through reports 0.
var perLayer = []metricDef{
	{"sim.advance_ns", "ns"}, {"sim.callback_ns", "ns"},
	{"machine.load_l1hit_ns", "ns"}, {"machine.load_remote_ns", "ns"},
	{"machine.mrefs", "count"}, {"machine.l1_miss_pct", "%"}, {"machine.l2_miss_pct", "%"},
	{"machine.remote_pct", "%"}, {"machine.fills_3hop", "count"}, {"machine.contention_wait_kcycles", "kcycles"},
	{"core.slip_barrier_ns", "ns"}, {"core.a_timely_pct", "%"}, {"core.a_late_pct", "%"},
	{"core.a_only_pct", "%"},
	{"omp.new_ms", "ms"}, {"omp.run_ms", "ms"}, {"omp.run_ns_per_mref", "ns"},
	{"omp.barrier_ns", "ns"}, {"omp.dyn_chunk_ns", "ns"}, {"omp.task_ns", "ns"},
	{"omp.busy_pct", "%"}, {"omp.mem_pct", "%"}, {"omp.lock_pct", "%"}, {"omp.barrier_pct", "%"},
	{"omp.jobwait_pct", "%"},
	{"npb.build_ms", "ms"}, {"npb.verify_ms", "ms"},
	{"experiments.render_ms", "ms"}, {"pool.overhead_ms", "ms"}, {"pool.parallel_eff", "fraction"},
	{"host.alloc_mb", "MiB"}, {"host.gc_count", "count"},
	{"http.submit_ms_p50", "ms"}, {"http.submit_ms_p99", "ms"},
	{"server.queue_ms_p50", "ms"}, {"server.queue_ms_p90", "ms"},
	{"server.run_ms_p50", "ms"}, {"server.run_ms_p90", "ms"},
	{"http.result_ms_p50", "ms"}, {"server.cache_hit_ratio", "fraction"},
	{"server.runs_per_distinct", "ratio"}, {"server.dedup_hits", "count"}, {"campaign.collapse_ratio", "fraction"},
	{"store.append_us", "us"}, {"store.append_fsync_ms", "ms"}, {"store.result_put_ms", "ms"},
	{"store.journal_bytes", "bytes"},
	{"cluster.claim_wait_ms_p50", "ms"}, {"cluster.dispatch_overhead_ms_p50", "ms"},
	{"cluster.claims_granted", "count"}, {"cluster.claims_duplicate", "count"},
	{"cluster.lease_expirations", "count"}, {"cluster.hedges_won", "count"},
	{"loadgen.lag_ms_p99", "ms"}, {"loadgen.offered_rps", "1/s"}, {"loadgen.completed_rps", "1/s"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runConfig) (*report, error){
	"paper-static": runPaper,
	"fleet-claims": runService,
}

// runConfig is what a workload runner gets from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	slipd    string // slipd binary (fleet workload)
	workDir  string // scratch space inside the checkout
}

// report is one run's outcome: metrics, request accounting, failed
// output checks, and human-readable notes printed before the result.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	mismatch  []string // failed output checks (each also counts in failed)
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records an output check; a failed one counts as a failed
// request.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
		r.failed++
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var c runConfig
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&c.seconds, "seconds", 20, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and probes")
	flag.StringVar(&c.slipd, "slipd", "", "slipd binary for the fleet workload")
	flag.StringVar(&c.workDir, "work-dir", filepath.Join(".bench_build", "perfbench"), "scratch directory (spans, slipd data dirs)")
	flag.Parse()
	c.trace = *traceFlag == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := rep.result(c.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range rep.mismatch {
		fmt.Println("CHECK FAILED:", m)
	}
	fmt.Printf("fail_ratio %.6f fraction (%d failed of %d attempted)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result assembles the JSON object: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, each printed
// by name and unit first.
func (r *report) result(traced bool) (resultOut, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultOut{Correct: len(r.mismatch) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if r.attempted < 1 {
		return out, fmt.Errorf("no requests attempted")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	return out, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
