package main

// analyzeSpans turns a traced window's spans into per-layer metrics. Only
// requests whose client span was recorded count (a request that straddles
// a tracer toggle is dropped whole). Each span's self time is its duration
// minus what its children — spans of the same request whose parent is its
// layer and which start inside it — cover.
func analyzeSpans(spans []span) map[string]float64 {
	byReq := map[int64][]span{}
	var background []span
	for _, s := range spans {
		if s.req == 0 {
			background = append(background, s)
		} else {
			byReq[s.req] = append(byReq[s.req], s)
		}
	}

	var self [numLayers][]float64
	var dur [numLayers][numOps][]float64
	var calls [numLayers]int
	requests, non2xx, unattributed := 0, 0, 0
	for _, group := range byReq {
		if !hasClient(group) {
			continue
		}
		requests++
		for i, s := range group {
			var children []interval
			for j, c := range group {
				if j != i && c.parent == s.layer && c.start >= s.start && c.start <= s.end {
					children = append(children, interval{c.start, c.end})
				}
			}
			st := selfTime(interval{s.start, s.end}, children)
			self[s.layer] = append(self[s.layer], float64(st)/1e3)
			dur[s.layer][s.op] = append(dur[s.layer][s.op], float64(s.end-s.start)/1e3)
			calls[s.layer]++
			if s.layer == layerConsole && (s.status < 200 || s.status > 299) {
				non2xx++
			}
		}
	}
	for _, s := range background {
		switch {
		case s.layer == layerBilling || s.layer == layerMonitor:
			dur[s.layer][s.op] = append(dur[s.layer][s.op], float64(s.end-s.start)/1e3)
		case s.layer == layerCloudServer && s.parent == layerNone:
			dur[s.layer][opNone] = append(dur[s.layer][opNone], float64(s.end-s.start)/1e3)
		default:
			unattributed++
		}
	}

	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }
	perReq := func(n int) float64 {
		if requests == 0 {
			return 0
		}
		return float64(n) / float64(requests)
	}
	var cloudServer []float64
	for _, xs := range dur[layerCloudServer] {
		cloudServer = append(cloudServer, xs...)
	}
	return map[string]float64{
		"client.self_us.p50":               p(self[layerClient], 0.50),
		"lb.self_us.p50":                   p(self[layerLB], 0.50),
		"lb.self_us.p99":                   p(self[layerLB], 0.99),
		"tukey.console.self_us.p50":        p(self[layerConsole], 0.50),
		"tukey.console.self_us.p99":        p(self[layerConsole], 0.99),
		"tukey.console.non2xx":             float64(non2xx),
		"tukeystate.session.calls_per_req": perReq(calls[layerSession]),
		"tukeystate.session.us.p50":        p(dur[layerSession][opNone], 0.50),
		"tukeystate.session.us.p99":        p(dur[layerSession][opNone], 0.99),
		"tukeystate.allow.calls_per_req":   perReq(calls[layerAllow]),
		"tukeystate.allow.us.p50":          p(dur[layerAllow][opNone], 0.50),
		"tukeystate.allow.us.p99":          p(dur[layerAllow][opNone], 0.99),
		"tukeystate.server.us.p50":         p(dur[layerStateServer][opNone], 0.50),
		"cloudapi.remote.calls_per_req":    perReq(calls[layerCloud]),
		"cloudapi.remote.instances.us.p50": p(dur[layerCloud][opInstances], 0.50),
		"cloudapi.remote.instances.us.p99": p(dur[layerCloud][opInstances], 0.99),
		"cloudapi.remote.launch.us.p50":    p(dur[layerCloud][opLaunch], 0.50),
		"cloudapi.remote.launch.us.p99":    p(dur[layerCloud][opLaunch], 0.99),
		"cloudapi.remote.terminate.us.p50": p(dur[layerCloud][opTerminate], 0.50),
		"cloudapi.remote.terminate.us.p99": p(dur[layerCloud][opTerminate], 0.99),
		"cloudapi.server.us.p50":           p(cloudServer, 0.50),
		"cloudapi.server.us.p99":           p(cloudServer, 0.99),
		"billing.poll_us.p50":              p(dur[layerBilling][opUsage], 0.50),
		"billing.poll_us.p99":              p(dur[layerBilling][opUsage], 0.99),
		"monitor.sample_us.p50":            p(dur[layerMonitor][opUsage], 0.50),
		"trace.requests":                   float64(requests),
		"trace.spans":                      float64(len(spans)),
		"trace.unattributed":               float64(unattributed),
		"trace.client_us.p50":              p(dur[layerClient][opNone], 0.50),
	}
}

func hasClient(group []span) bool {
	for _, s := range group {
		if s.layer == layerClient {
			return true
		}
	}
	return false
}
