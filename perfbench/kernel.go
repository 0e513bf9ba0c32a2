package main

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "osdc/internal/experiments" // registers the scenarios
	"osdc/internal/scenario"
)

// kernel-offline runs the registered million-entity scenario in virtual
// time only: 10⁵ entities over K=2 lockstep shards for 6 simulated hours.
var kernelParams = map[string]float64{"entities": 100000, "shards": 2, "hours": 6}

const (
	kernelEntities = 100000
	kernelFlows    = kernelEntities / 10
	// kernelHeartbeats does not depend on the seed: web entities beat on
	// fixed whole-second phases every 120 s.
	kernelHeartbeats = 16200834
	// At the paper's seed the flow draws are pinned too.
	goldenSeed      = 2012
	goldenTransfers = 4465474
	// setupHours is a horizon short enough that a scenario call is all
	// population build: the kernel's set-up.
	setupHours = 1e-6
	// kernelSetups is how many population builds a run times; setup_s is
	// their median. One takes ~0.07 s, so it is repeated more often than
	// a console set-up.
	kernelSetups = 21
)

// kernelCall is one timed scenario call.
type kernelCall struct {
	wall    time.Duration
	metrics map[string]float64
}

// runKernel measures kernel-offline: scenario calls back to back until the
// run's seconds are spent (at least one), each checked.
func runKernel(seed uint64, seconds int, out *report) error {
	sc, ok := scenario.Get("million-entity")
	if !ok {
		return fmt.Errorf("million-entity scenario is not registered")
	}
	p, ok := sc.(scenario.Parametric)
	if !ok {
		return fmt.Errorf("million-entity scenario is not parametric")
	}
	full, err := p.With(kernelParams)
	if err != nil {
		return err
	}
	setupParams := maps.Clone(kernelParams)
	setupParams["hours"] = setupHours
	setup, err := p.With(setupParams)
	if err != nil {
		return err
	}
	for i := 0; i < kernelSetups; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		if _, err := setup.Run(seed); err != nil {
			return fmt.Errorf("population build: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}

	var calls []kernelCall
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	origin := time.Now()
	for len(calls) == 0 || time.Since(origin) < time.Duration(seconds)*time.Second {
		// Each call starts from a collected heap, as in a fresh process.
		runtime.GC()
		start := time.Now()
		res, err := full.Run(seed)
		if err != nil {
			return fmt.Errorf("million-entity: %w", err)
		}
		calls = append(calls, kernelCall{wall: time.Since(start), metrics: res.Metrics})
		if err := checkKernel(seed, res); err != nil {
			out.problems = append(out.problems, err.Error())
			out.failed++
		} else if !maps.Equal(res.Metrics, calls[0].metrics) {
			out.problems = append(out.problems, "million-entity output differs between calls of one run")
			out.failed++
		}
	}
	elapsed := time.Since(origin)
	runtime.ReadMemStats(&ms1)

	out.attempted = len(calls)
	var lat, rates []float64
	for _, c := range calls {
		lat = append(lat, c.wall.Seconds()*1e3)
		rates = append(rates, c.metrics["events-fired"]/c.wall.Seconds())
	}
	sort.Float64s(lat)
	out.reqPerS = float64(len(calls)) / elapsed.Seconds()
	out.p50, out.p99 = percentile(lat, 0.50), percentile(lat, 0.99)
	out.samples, out.beyondP99 = len(lat), beyond(len(lat), 0.99)
	eventsPerS := median(rates)
	out.notes = append(out.notes, fmt.Sprintf("K=%d speedup=virtual entities=%d hours=%g: %d calls, events-fired %.0f, heartbeats %.0f, transfers %.0f",
		int(kernelParams["shards"]), kernelEntities, kernelParams["hours"], len(calls),
		calls[0].metrics["events-fired"], calls[0].metrics["heartbeats"], calls[0].metrics["transfers"]),
		fmt.Sprintf("sim_events_per_s %.6g 1/s (median over calls; not gated: the event count is fixed, so it moves as the inverse of req_p50_ms)", eventsPerS))

	m := calls[0].metrics
	out.layer["sim.events"] = m["events-fired"]
	out.layer["sim.events_per_s"] = eventsPerS
	out.layer["sim.skew_s"] = m["skew-final-sec"]
	n := float64(len(calls))
	out.layer["go.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	out.layer["go.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	out.layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	out.layer["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return nil
}

// checkKernel verifies one million-entity result: the seed-independent
// invariants always, and the pinned counts at the golden seed.
func checkKernel(seed uint64, res scenario.Result) error {
	m := res.Metrics
	want := map[string]float64{
		"entities":       kernelEntities,
		"science-flows":  kernelFlows,
		"web-instances":  kernelEntities - kernelFlows,
		"shards":         kernelParams["shards"],
		"heartbeats":     kernelHeartbeats,
		"pending-final":  kernelEntities,
		"skew-final-sec": 0,
		"events-fired":   m["heartbeats"] + m["transfers"],
	}
	if seed == goldenSeed {
		want["transfers"] = goldenTransfers
		want["events-fired"] = kernelHeartbeats + goldenTransfers
	}
	for k, v := range want {
		if m[k] != v {
			return fmt.Errorf("million-entity %s = %v, want %v", k, m[k], v)
		}
	}
	total, err := shardRowTotal(res.Table, int(kernelParams["shards"]))
	if err != nil {
		return err
	}
	if got := [4]float64{m["entities"], m["science-flows"], m["heartbeats"], m["transfers"]}; got != total {
		return fmt.Errorf("million-entity metrics %v disagree with its table's total row %v", got, total)
	}
	return nil
}

// shardRowTotal parses the scenario's per-shard table (entities, flows,
// heartbeats, transfers), checks that the shard rows sum to the total
// row column by column, and returns that total.
func shardRowTotal(table string, shards int) ([4]float64, error) {
	var sum, total [4]float64
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil && f[0] != "total" {
			continue
		}
		var vals [4]float64
		for i := range vals {
			v, err := strconv.ParseInt(f[i+1], 10, 64)
			if err != nil {
				return total, fmt.Errorf("million-entity table row %q: %v", line, err)
			}
			vals[i] = float64(v)
		}
		if f[0] == "total" {
			total = vals
			continue
		}
		rows++
		for i := range vals {
			sum[i] += vals[i]
		}
	}
	if rows != shards {
		return total, fmt.Errorf("million-entity table has %d shard rows, want %d", rows, shards)
	}
	if sum != total {
		return total, fmt.Errorf("million-entity shard rows sum to %v, total row says %v", sum, total)
	}
	return total, nil
}
