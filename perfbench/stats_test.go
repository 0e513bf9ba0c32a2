package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2},    // ⌈0.5·4⌉ = 2
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3}, // ⌈2.5⌉ = 3
		{hundred, 0.99, 99},                // 0.99·100 is whole: rank 99, not 100
		{hundred, 0.50, 50},
		{hundred, 1, 100},
		{hundred, 0.001, 1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%d values, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSegmentMedians(t *testing.T) {
	const ms = int64(time.Millisecond)
	// A 4 s window in 4 segments. Segment 2 stalls: few requests, slow.
	var starts, lat []int64
	add := func(seg, n int, latency int64) {
		for i := 0; i < n; i++ {
			starts = append(starts, int64(seg)*1000*ms+int64(i)*ms)
			lat = append(lat, latency)
		}
	}
	add(0, 100, 1*ms)
	add(1, 120, 2*ms)
	add(2, 5, 90*ms)
	add(3, 110, 3*ms)
	starts = append(starts, 4000*ms) // started on the deadline: the last segment
	lat = append(lat, 3*ms)
	perS, p50, p99 := segmentMedians(starts, lat, 4*time.Second, 4)
	// Nearest-rank medians of {100, 120, 5, 111} req/s, {1, 2, 90, 3} ms.
	if perS != 100 || p50 != 2 || p99 != 2 {
		t.Errorf("segmentMedians = %v req/s, p50 %v ms, p99 %v ms; want 100, 2, 2", perS, p50, p99)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested inside a sibling", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted", []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
		{"clipped to the parent", []interval{{-10, 10}, {90, 130}}, 80},
		{"outside the parent", []interval{{100, 120}, {-5, 0}}, 100},
		{"covering it all", []interval{{0, 50}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAttributionByUser(t *testing.T) {
	a := newAttributor(2, map[string]int{"load0000": 0, "load0001": 1, "load0002": 0})
	a.current[0].Store(41)
	a.current[1].Store(42)
	cases := map[string]int64{
		"load0000":              41,
		"load0002":              41,
		"load0001":              42,
		"load0001@uchicago.edu": 42, // limiter keys are federated identifiers
		"stranger":              0,
		"stranger@uchicago.edu": 0,
		"":                      0,
	}
	for user, want := range cases {
		if got := a.request(user); got != want {
			t.Errorf("request(%q) = %d, want %d", user, got, want)
		}
	}
	a.current[0].Store(0)
	if got := a.request("load0000"); got != 0 {
		t.Errorf("idle client's user attributed to request %d", got)
	}
}

func TestAnalyzeSpansSplitsARequest(t *testing.T) {
	spans := []span{
		{layer: layerClient, req: 1, start: 0, end: 100},
		{layer: layerLB, parent: layerClient, req: 1, start: 10, end: 90},
		{layer: layerConsole, parent: layerLB, req: 1, start: 20, end: 80, status: 200},
		{layer: layerSession, parent: layerConsole, req: 1, start: 25, end: 35},
		{layer: layerStateServer, parent: layerSession, req: 1, start: 28, end: 32},
		{layer: layerAllow, parent: layerConsole, req: 1, start: 40, end: 50},
		{layer: layerCloud, parent: layerConsole, op: opInstances, req: 1, start: 55, end: 75},
		{layer: layerCloudServer, parent: layerCloud, req: 1, start: 60, end: 70},
		// A request whose client span was not recorded is dropped whole.
		{layer: layerLB, parent: layerClient, req: 2, start: 0, end: 5},
		// Background poller work.
		{layer: layerBilling, op: opUsage, start: 0, end: 9},
		{layer: layerCloudServer, start: 2, end: 6},
		// A tenant call no request claimed.
		{layer: layerSession, parent: layerConsole, start: 0, end: 3},
	}
	m := analyzeSpans(spans)
	want := map[string]float64{
		"client.self_us.p50":               0.020, // 100 − lb 80 ns
		"lb.self_us.p50":                   0.020, // 80 − console 60
		"tukey.console.self_us.p50":        0.020, // 60 − (10 + 10 + 20)
		"tukeystate.session.calls_per_req": 1,
		"tukeystate.session.us.p50":        0.010,
		"tukeystate.server.us.p50":         0.004,
		"cloudapi.remote.calls_per_req":    1,
		"cloudapi.remote.instances.us.p50": 0.020,
		"billing.poll_us.p50":              0.009,
		"trace.requests":                   1,
		"trace.unattributed":               1,
	}
	for k, v := range want {
		if got := m[k]; got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
}

func TestJSONField(t *testing.T) {
	body := []byte(`{"token":"tukey-sess-r1-000042","session":{"Identity":{}}}`)
	if got := jsonField(body, "token"); got != "tukey-sess-r1-000042" {
		t.Errorf("token = %q", got)
	}
	if got := jsonField([]byte(`{"key":"load0001@uchicago.edu","cost":2}`), "key"); got != "load0001@uchicago.edu" {
		t.Errorf("key = %q", got)
	}
	if got := jsonField(body, "key"); got != "" {
		t.Errorf("absent key = %q", got)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		spec []entry
		prog []metricUnit
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.kind, len(c.spec), len(c.prog))
			continue
		}
		for i, e := range c.spec {
			if e.Name != c.prog[i].name || e.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					c.kind, i, e.Name, e.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
