package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// spanDir is where traced runs write their spans, inside the build
// directory the wrapper script keeps out of version control.
const spanDir = ".bench_build/spans"

// counters are the layer counts read at the edges of the measured window.
type counters struct {
	fired, launches, heartbeats uint64
	wall                        time.Time // read together with the kernel clock
	now                         float64
	terminated                  int
	retries, allowErrors        int64
	lbDials, stateDials         int64
	billing, monitor            int64
	pollErrors, sampleErrors    int64
	cloudErrors                 int64
}

func (r *rig) counters() counters {
	c := counters{
		fired:        r.f.Set.Fired(),
		wall:         time.Now(),
		now:          float64(r.f.Set.Now()),
		launches:     uint64(r.f.Adler.Launches + r.f.Sullivan.Launches),
		heartbeats:   r.f.Adler.Heartbeats(),
		terminated:   r.researcherTerminated(),
		lbDials:      r.lbDials.Load(),
		stateDials:   r.stateDials.Load(),
		billing:      atomic.LoadInt64(&r.f.Biller.Polls),
		pollErrors:   atomic.LoadInt64(&r.f.Biller.PollErrors),
		sampleErrors: atomic.LoadInt64(&r.f.UsageMon.SampleErrors),
	}
	if r.pool != nil {
		c.retries = atomic.LoadInt64(&r.pool.Retries)
	}
	for _, l := range r.limits {
		c.allowErrors += atomic.LoadInt64(&l.Errors)
	}
	if r.tr != nil {
		c.monitor = r.tr.monitorCalls.Load()
		c.cloudErrors = r.tr.cloudErrors.Load()
	}
	return c
}

// segments is how many equal parts a console window is split into for the
// end-to-end figures, each the median over the segments.
const segments = 10

// runConsole measures one console workload: set-up (timed, repeated, the
// last build kept), warm-up, then the closed-loop window. A traced run
// splits the window into tracer-off, on, on, off quarters: the off
// quarters give the tracing overhead and the allocation figures, the on
// quarters the spans.
func runConsole(name string, w consoleWorkload, seed uint64, seconds int, traced bool, out *report) error {
	var r *rig
	for i := 0; i < consoleSetups; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		// Each set-up starts from a collected heap returned to the OS.
		debug.FreeOSMemory()
		start := time.Now()
		built, err := buildRig(w, seed, traced)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		r = built
	}
	defer r.close()

	if err := r.each(func(c *client) error { c.loop(time.Now().Add(warmup)); return nil }); err != nil {
		return err
	}
	debug.FreeOSMemory()

	phases := []bool{false}
	if traced {
		phases = []bool{false, true, true, false}
	}
	window := time.Duration(seconds) * time.Second
	seg := window / time.Duration(len(phases))
	before := r.counters()
	origin := time.Now()
	for _, c := range r.clients {
		c.resetWindow(origin)
	}
	done := make(chan error, 1)
	go func() {
		done <- r.each(func(c *client) error { c.loop(origin.Add(window)); return nil })
	}()
	var offAlloc, offMallocs uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := ms0
	for i, on := range phases {
		if r.tr != nil {
			r.tr.on.Store(on)
		}
		time.Sleep(time.Until(origin.Add(seg * time.Duration(i+1))))
		runtime.ReadMemStats(&ms1)
		if !on {
			offAlloc += ms1.TotalAlloc - ms0.TotalAlloc
			offMallocs += ms1.Mallocs - ms0.Mallocs
		}
		ms0 = ms1
	}
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	if err := <-done; err != nil {
		return err
	}
	elapsed := time.Since(origin)
	after := r.counters()
	simEvents := float64(after.fired - before.fired)

	// Phase of each request by start time; latencies and failures.
	perPhase := make([]int, len(phases))
	var starts, lat []int64
	for _, c := range r.clients {
		for _, start := range c.starts {
			perPhase[min(int(time.Duration(start)/seg), len(phases)-1)]++
		}
		starts, lat = append(starts, c.starts...), append(lat, c.lat...)
		out.failed += c.failed
	}
	out.attempted = len(lat)
	out.reqPerS, out.p50, out.p99 = segmentMedians(starts, lat, window, segments)
	out.samples = len(lat)
	out.beyondP99 = segments * beyond(len(lat)/segments, 0.99)
	if w.bg > 0 {
		if err := r.liveMatchesLedger(); err != nil {
			out.problems = append(out.problems, err.Error())
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("K=%d speedup=%g clients=%d users=%d replicas=%d background-vms=%d warm-up=%v window=%v in %d segments (req_* are medians over them)",
		r.f.Set.K(), w.speedup, clients, w.users, w.replicas, w.bg, warmup, window, segments))
	if !traced {
		return nil
	}

	var offReqs, onReqs int
	for i, on := range phases {
		if on {
			onReqs += perPhase[i]
		} else {
			offReqs += perPhase[i]
		}
	}
	offRate, onRate := float64(offReqs), float64(onReqs) // equal time in each
	l := out.layer
	if offRate > 0 {
		l["trace.overhead_pct"] = 100 * (1 - onRate/offRate)
		l["go.alloc_bytes_per_req"] = float64(offAlloc) / float64(offReqs)
		l["go.allocs_per_req"] = float64(offMallocs) / float64(offReqs)
	}
	l["go.gc_cycles"] = float64(ms1.NumGC - gc0.NumGC)
	l["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	l["lb.retries"] = float64(after.retries - before.retries)
	l["lb.upstream_dials"] = float64(after.lbDials - before.lbDials)
	l["tukeystate.allow.errors"] = float64(after.allowErrors - before.allowErrors)
	l["tukeystate.dials"] = float64(after.stateDials - before.stateDials)
	l["cloudapi.remote.errors"] = float64(after.cloudErrors - before.cloudErrors)
	l["iaas.launches"] = float64(after.launches - before.launches)
	l["iaas.terminates"] = float64(after.terminated - before.terminated)
	l["iaas.heartbeats"] = float64(after.heartbeats - before.heartbeats)
	l["sim.events"] = simEvents
	l["sim.events_per_s"] = simEvents / elapsed.Seconds()
	l["sim.lag_s"] = w.speedup*after.wall.Sub(before.wall).Seconds() - (after.now - before.now)
	l["sim.skew_s"] = float64(r.f.Set.Skew())
	l["billing.polls"] = float64(after.billing - before.billing)
	l["billing.poll_errors"] = float64(after.pollErrors - before.pollErrors)
	l["monitor.samples"] = float64(after.monitor - before.monitor)
	l["monitor.sample_errors"] = float64(after.sampleErrors - before.sampleErrors)

	spans := r.tr.snapshot()
	for k, v := range analyzeSpans(spans) {
		l[k] = v
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.tsv", name, seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return nil
}
