package main

import (
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of values
// sorted ascending: the smallest value with at least ⌈q·n⌉ values at or
// below it. An empty input gives 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps q·n that is whole in exact arithmetic (0.99·100) from
// rounding up past itself.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the q-quantile's rank — the
// sample count a tail percentile rests on.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// segmentMedians splits a window of length window into n equal segments,
// assigns each request to the segment it started in, and returns the
// medians over the segments of the request rate (per second) and of the
// nearest-rank p50 and p99 latency. A transient stall on a shared machine
// then moves one segment's figures instead of the whole run's tail. starts
// are offsets from the window's start, lat the latencies, both in ns.
func segmentMedians(starts, lat []int64, window time.Duration, n int) (perS, p50, p99 float64) {
	seg := window / time.Duration(n)
	byStart := make([][]float64, n)
	for i, s := range starts {
		k := min(int(time.Duration(s)/seg), n-1)
		byStart[k] = append(byStart[k], float64(lat[i])/1e6)
	}
	var rates, p50s, p99s []float64
	for _, xs := range byStart {
		sort.Float64s(xs)
		rates = append(rates, float64(len(xs))/seg.Seconds())
		p50s = append(p50s, percentile(xs, 0.50))
		p99s = append(p99s, percentile(xs, 0.99))
	}
	return median(rates), median(p50s), median(p99s)
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting time
// covered by several overlapping intervals once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64 = 0, lo
	for _, iv := range clipped {
		s := max(iv.start, reach)
		if iv.end > s {
			total += iv.end - s
			reach = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}

// attributor maps a call that carries no request id to the request in
// flight for the user it names. It is exact because each closed-loop
// client owns a disjoint set of users and has one request in flight.
type attributor struct {
	owner   map[string]int // user → client index; read-only once traffic starts
	current []atomic.Int64 // client index → request id in flight (0 = none)
}

func newAttributor(clients int, owner map[string]int) *attributor {
	return &attributor{owner: owner, current: make([]atomic.Int64, clients)}
}

// request returns the id of the request in flight for user, 0 when the
// user is unknown or its client is idle.
func (a *attributor) request(user string) int64 {
	c, ok := a.owner[userOf(user)]
	if !ok {
		return 0
	}
	return a.current[c].Load()
}

// userOf reduces a federated identifier ("load0042@uchicago.edu") to the
// local user name the clouds and the load clients use.
func userOf(identifier string) string {
	if i := strings.IndexByte(identifier, '@'); i >= 0 {
		return identifier[:i]
	}
	return identifier
}
