// Command perfbench is the repository's benchmark. It stands the OSDC
// federation up in-process from the packages' exported constructors,
// drives one named workload for a fixed number of seconds with inputs
// made from the seed, checks every output, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing installed; with -trace 1 timing wrappers go around every layer
// boundary and the metrics are the per-layer ones. METRICS.md maps each
// metric to its layer and to the end-to-end metric it should move.
//
// Usage:
//
//	go run . -workload console-read -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// metricUnit is one reported metric's name and unit.
type metricUnit struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off.
var endToEnd = []metricUnit{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports 0: it did no work there.
var perLayer = []metricUnit{
	{"client.self_us.p50", "us"},
	{"lb.self_us.p50", "us"},
	{"lb.self_us.p99", "us"},
	{"lb.retries", "count"},
	{"lb.upstream_dials", "count"},
	{"tukey.console.self_us.p50", "us"},
	{"tukey.console.self_us.p99", "us"},
	{"tukey.console.non2xx", "count"},
	{"tukeystate.session.calls_per_req", "calls/req"},
	{"tukeystate.session.us.p50", "us"},
	{"tukeystate.session.us.p99", "us"},
	{"tukeystate.allow.calls_per_req", "calls/req"},
	{"tukeystate.allow.us.p50", "us"},
	{"tukeystate.allow.us.p99", "us"},
	{"tukeystate.server.us.p50", "us"},
	{"tukeystate.allow.errors", "count"},
	{"tukeystate.dials", "count"},
	{"cloudapi.remote.calls_per_req", "calls/req"},
	{"cloudapi.remote.instances.us.p50", "us"},
	{"cloudapi.remote.instances.us.p99", "us"},
	{"cloudapi.remote.launch.us.p50", "us"},
	{"cloudapi.remote.launch.us.p99", "us"},
	{"cloudapi.remote.terminate.us.p50", "us"},
	{"cloudapi.remote.terminate.us.p99", "us"},
	{"cloudapi.server.us.p50", "us"},
	{"cloudapi.server.us.p99", "us"},
	{"cloudapi.remote.errors", "count"},
	{"iaas.launches", "count"},
	{"iaas.terminates", "count"},
	{"iaas.heartbeats", "count"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.lag_s", "s"},
	{"sim.skew_s", "s"},
	{"billing.polls", "count"},
	{"billing.poll_us.p50", "us"},
	{"billing.poll_us.p99", "us"},
	{"billing.poll_errors", "count"},
	{"monitor.samples", "count"},
	{"monitor.sample_us.p50", "us"},
	{"monitor.sample_errors", "count"},
	{"go.alloc_bytes_per_req", "B/req"},
	{"go.allocs_per_req", "1/req"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.requests", "count"},
	{"trace.spans", "count"},
	{"trace.unattributed", "count"},
	{"trace.client_us.p50", "us"},
	{"trace.overhead_pct", "%"},
}

// report collects one run's measurements.
type report struct {
	setups             []float64 // seconds per set-up
	reqPerS, p50, p99  float64   // requests per second and latency percentiles, ms
	samples, beyondP99 int       // latencies the percentiles rest on; how many lie beyond p99
	attempted          int
	failed             int
	problems           []string           // correctness failures, one line each
	notes              []string           // run description lines
	layer              map[string]float64 // per-layer metrics by name
}

func main() {
	workload := flag.String("workload", "", "workload: console-read, console-grid-write or kernel-offline")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "1 installs timing wrappers and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	out := &report{layer: map[string]float64{}}
	var err error
	switch w, ok := consoleWorkloads[*workload]; {
	case ok:
		err = runConsole(*workload, w, *seed, *seconds, *trace == 1, out)
	case *workload == "kernel-offline":
		err = runKernel(*seed, *seconds, out)
	default:
		names := append(slices.Sorted(maps.Keys(consoleWorkloads)), "kernel-offline")
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d trace %d GOMAXPROCS=%d\n", *workload, *seed, *trace, runtime.GOMAXPROCS(0))
	if !emit(out, *trace == 1) {
		os.Exit(1)
	}
}

// emit prints the run's description, every metric with its unit, the
// correctness verdict, and the JSON result line. It reports whether the
// run was correct.
func emit(r *report, traced bool) bool {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	values := map[string]float64{
		"setup_s":     median(r.setups),
		"req_per_s":   r.reqPerS,
		"req_p50_ms":  r.p50,
		"req_p99_ms":  r.p99,
		"peak_rss_mb": peakRSSMB(),
	}
	list := endToEnd
	if traced {
		values, list = r.layer, perLayer
	} else {
		fmt.Printf("setup_s over %d set-ups: %s\n", len(r.setups), fmtList(r.setups))
		fmt.Printf("samples %d, %d beyond p99\n", r.samples, r.beyondP99)
		fmt.Printf("fail_ratio %.6f (%d failed of %d attempted)\n", ratio(r.failed, r.attempted), r.failed, r.attempted)
	}
	metrics := map[string]metric{}
	for _, m := range list {
		metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		fmt.Printf("%-34s %14.6g %s\n", m.name, values[m.name], m.unit)
	}
	for _, p := range r.problems {
		fmt.Println("INCORRECT:", p)
	}
	correct := r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	line, _ := json.Marshal(result{Correct: correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: metrics})
	fmt.Println(string(line))
	return correct
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
