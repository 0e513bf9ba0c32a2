package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/lb"
	"osdc/internal/monitor"
	"osdc/internal/sim"
	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
)

// consoleWorkload shapes one console deployment and its traffic.
type consoleWorkload struct {
	users    int     // logged-in researchers, split evenly over the clients
	replicas int     // stateless replicas behind lb over tukeystate; 0 = one console, in-memory sessions
	shards   int     // kernel shard count K
	speedup  float64 // simulated seconds per wall second of the live clock
	bg       int     // background VMs heartbeating on Adler
	park     bool    // every researcher parks one VM on each cloud at set-up
	walk     []route // each researcher's requests, in order, over and over
}

const (
	clients       = 2
	consoleSetups = 9 // set-ups a run times; setup_s is their median
	warmup        = 1500 * time.Millisecond
	hostCores     = 512 // dense synthetic hypervisors, as console-load's grid mode uses
	heartbeat     = sim.Duration(30 * sim.Minute)
	bgUser        = "grid"
	tickPeriod    = 2 * time.Millisecond
	// datasetQuery is the catalog search both walks send, as the
	// console-load scenarios do.
	datasetQuery = "genomics"
)

// The traffic mixes are not guessed: each is the per-iteration walk of a
// registered console-load scenario (internal/experiments/consoleload.go).
var (
	// readWalk is console-knee's: the four read routes.
	readWalk = []route{(*client).instances, (*client).usage, (*client).datasets, (*client).status}
	// writeWalk is console-load's: launch a VM, walk the four read
	// routes, terminate it.
	writeWalk = []route{(*client).launch, (*client).instances, (*client).usage, (*client).datasets,
		(*client).status, (*client).terminate}
)

var consoleWorkloads = map[string]consoleWorkload{
	"console-read": {
		users: 1024, replicas: 2, shards: 1, speedup: 600, park: true,
		walk: readWalk,
	},
	"console-grid-write": {
		users: 1024, shards: 2, speedup: 6000, bg: 100000,
		walk: writeWalk,
	},
}

// researcher is one enrolled user, owned by exactly one client.
type researcher struct {
	name   string
	token  string
	parked []string // IDs of the parked VMs, in listing order (Adler, Sullivan)
	next   int      // position in the workload's walk

	// The VM the write walk launched and has not yet terminated.
	liveCloud, liveID    string
	launches, terminates int
}

// route is one console request for u; it reports whether the reply was
// the expected one.
type route func(c *client, u *researcher) bool

// rig is a live federation behind HTTP plus the clients that drive it.
type rig struct {
	w       consoleWorkload
	f       *core.Federation
	front   string
	pool    *lb.Pool
	limits  []*tukeystate.RemoteLimiter
	clock   *sim.Driver
	closers []func()
	clients []*client
	tr      *tracer
	attr    *attributor

	datasetHits         int // catalog entries datasetQuery matches
	lbDials, stateDials atomic.Int64
}

// countingTransport is a pooled transport that counts the connections it
// dials into n.
func countingTransport(n *atomic.Int64, idle int) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	return &http.Transport{
		MaxIdleConns: idle, MaxIdleConnsPerHost: idle,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			n.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
}

// buildRig stands the deployment up, enrolls and logs in every researcher.
// With traced set, timing wrappers go around every layer boundary.
func buildRig(w consoleWorkload, seed uint64, traced bool) (*rig, error) {
	f, err := core.New(core.Options{Seed: seed, Scale: 8, Shards: w.shards})
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	r := &rig{w: w, f: f}
	owner := map[string]int{}
	users := make([]*researcher, w.users)
	for i := range users {
		users[i] = &researcher{name: fmt.Sprintf("load%04d", i)}
		owner[users[i].name] = i % clients
	}
	r.attr = newAttributor(clients, owner)
	if traced {
		r.tr = newTracer(r.attr)
	}

	// Capacity: every researcher VM and every background VM fits.
	for _, c := range []*iaas.Cloud{f.Adler, f.Sullivan} {
		need := 2 * w.users
		if c == f.Adler {
			need += w.bg
		}
		for i := 0; i*hostCores < need+hostCores; i++ {
			c.AddHost(iaas.NewHost(fmt.Sprintf("%s-bench-%03d", c.Name, i), hostCores, hostCores*4096, hostCores*100))
		}
	}
	if w.bg > 0 {
		f.Adler.SetHeartbeat(heartbeat)
		f.Adler.SetQuota(bgUser, iaas.Quota{MaxInstances: w.bg + 1, MaxCores: w.bg + 1})
		for i := 0; i < w.bg; i++ {
			if _, err := f.Adler.Launch(bgUser, fmt.Sprintf("bg-%06d", i), "m1.small", ""); err != nil {
				return nil, fmt.Errorf("background launch %d: %w", i, err)
			}
		}
	}

	// Both clouds behind cloudapi over loopback HTTP; the console and the
	// pollers reach them only through Remotes.
	cloudClient := &http.Client{Timeout: cloudapi.DefaultTimeout, Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}}
	var billingAPIs, monitorAPIs []cloudapi.CloudAPI
	for _, c := range []*iaas.Cloud{f.Adler, f.Sullivan} {
		var h http.Handler = cloudapi.NewServer(c)
		if r.tr != nil {
			h = r.tr.cloudHandler(h)
		}
		srv := httptest.NewServer(h)
		r.closers = append(r.closers, srv.Close)
		remote := cloudapi.NewRemote(c.Name, c.Stack, srv.URL, cloudClient)
		var tenant, bill, mon cloudapi.CloudAPI = remote, remote, remote
		if r.tr != nil {
			tenant = tracedCloud{remote, r.tr, layerCloud}
			bill = tracedCloud{remote, r.tr, layerBilling}
			mon = tracedCloud{remote, r.tr, layerMonitor}
		}
		f.Tukey.AttachCloud(tukey.CloudConfig{API: tenant})
		billingAPIs, monitorAPIs = append(billingAPIs, bill), append(monitorAPIs, mon)
	}
	r.closers = append(r.closers, cloudClient.CloseIdleConnections)
	f.UseCloudAPIs(billingAPIs...)
	if r.tr != nil {
		// Rebuilt only so that the monitor's calls are told apart from
		// the biller's.
		f.UsageMon.Stop()
		f.UsageMon = monitor.NewUsageMonitor(f.Engine, monitorAPIs, 5*sim.Minute)
	}

	if w.replicas > 0 {
		r.startScaleOut()
	} else {
		console := &tukey.Console{MW: f.Tukey, Biller: f.Biller, Catalog: f.Catalog, UsageMon: f.UsageMon}
		r.front = r.serve(layerConsole, layerClient, console)
	}

	for _, u := range users {
		f.EnrollResearcher(u.name, "pw-"+u.name)
		quota := iaas.Quota{MaxInstances: 10, MaxCores: 16}
		f.Adler.SetQuota(u.name, quota)
		f.Sullivan.SetQuota(u.name, quota)
		if w.park {
			for _, c := range []*iaas.Cloud{f.Adler, f.Sullivan} {
				inst, err := c.Launch(u.name, u.name+"-home", "m1.small", "")
				if err != nil {
					r.close()
					return nil, fmt.Errorf("parking %s on %s: %w", u.name, c.Name, err)
				}
				u.parked = append(u.parked, inst.ID)
			}
		}
	}
	r.datasetHits = len(f.Catalog.Search(datasetQuery))

	if f.Set.K() > 1 {
		r.clock = sim.StartShardDriver(f.Set, w.speedup, tickPeriod)
	} else {
		r.clock = sim.StartDriver(f.Engine, w.speedup, tickPeriod)
	}

	for i := 0; i < clients; i++ {
		c := &client{
			id: i, rig: r,
			hc:  &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng: rand.New(rand.NewPCG(seed, uint64(i))),
		}
		for j := i; j < len(users); j += clients {
			c.users = append(c.users, users[j])
		}
		r.clients = append(r.clients, c)
		r.closers = append(r.closers, c.hc.CloseIdleConnections)
	}
	if err := r.each(func(c *client) error {
		for _, u := range c.users {
			if !c.login(u) {
				return fmt.Errorf("login of %s failed", u.name)
			}
		}
		return nil
	}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// startScaleOut builds the console-read topology: a tukeystate plane, the
// stateless replicas using it for sessions and admission, lb in front.
func (r *rig) startScaleOut() {
	var state http.Handler = tukeystate.NewServer(tukey.NewMemorySessionStore(), tukey.NewRateLimiter(1e9, 1e9))
	if r.tr != nil {
		state = r.tr.stateHandler(state)
	}
	stateSrv := httptest.NewServer(state)
	r.closers = append(r.closers, stateSrv.Close)
	stateClient := &http.Client{Timeout: tukeystate.DefaultTimeout, Transport: countingTransport(&r.stateDials, 16)}
	r.closers = append(r.closers, stateClient.CloseIdleConnections)

	var urls []string
	for k := 0; k < r.w.replicas; k++ {
		limiter := tukeystate.NewRemoteLimiter(stateSrv.URL, stateClient)
		r.limits = append(r.limits, limiter)
		var store tukey.SessionStore = tukeystate.NewRemoteSessionStore(stateSrv.URL, stateClient)
		var lim tukey.Limiter = limiter
		if r.tr != nil {
			store, lim = tracedStore{store, r.tr}, tracedLimiter{lim, r.tr}
		}
		mw := r.f.AddTukeyReplica(store, fmt.Sprintf("r%d-", k))
		console := &tukey.Console{MW: mw, Biller: r.f.Biller, Catalog: r.f.Catalog, UsageMon: r.f.UsageMon, Limiter: lim}
		urls = append(urls, r.serve(layerConsole, layerLB, console))
	}
	lbClient := &http.Client{Timeout: 30 * time.Second, Transport: countingTransport(&r.lbDials, 16)}
	r.closers = append(r.closers, lbClient.CloseIdleConnections)
	r.pool = lb.NewPool(urls, lbClient)
	r.front = r.serve(layerLB, layerClient, r.pool)
}

// serve starts a listener for h, wrapped as layer l when tracing.
func (r *rig) serve(l, parent layer, h http.Handler) string {
	if r.tr != nil {
		h = r.tr.handler(l, parent, h)
	}
	srv := httptest.NewServer(h)
	r.closers = append(r.closers, srv.Close)
	return srv.URL
}

// close stops the clock, then every listener and pooled connection.
func (r *rig) close() {
	if r.clock != nil {
		r.clock.Stop()
	}
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// each runs fn on every client concurrently and returns the first error.
func (r *rig) each(fn func(c *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// client is one closed-loop stream of researcher requests: it sends its next
// request only after the previous reply is read.
type client struct {
	id    int
	rig   *rig
	hc    *http.Client
	rng   *rand.Rand
	users []*researcher

	// Per measured window: request start offsets and latencies (ns), and
	// how many requests failed.
	starts, lat []int64
	failed      int
	origin      time.Time
}

var nextRequestID atomic.Int64

// do sends one request and reads the whole reply. It returns the status
// (0 on a transport error) and the body.
func (c *client) do(method, path, token string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, c.rig.front+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if token != "" {
		req.Header.Set("X-Tukey-Session", token)
	}
	tr := c.rig.tr
	var id int64
	if tr != nil {
		id = nextRequestID.Add(1)
		req.Header.Set(requestHeader, strconv.FormatInt(id, 10))
		c.rig.attr.current[c.id].Store(id)
	}
	traced := tr != nil && tr.on.Load()
	var spanStart int64
	if traced {
		spanStart = tr.now()
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var out []byte
	status := 0
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			status = resp.StatusCode
		}
	}
	end := time.Now()
	c.starts = append(c.starts, int64(start.Sub(c.origin)))
	c.lat = append(c.lat, int64(end.Sub(start)))
	if traced && tr.on.Load() {
		tr.record(span{layer: layerClient, req: id, start: spanStart, end: tr.now()})
	}
	return status, out
}

// check counts a failed operation when ok is false.
func (c *client) check(ok bool) {
	if !ok {
		c.failed++
	}
}

// login authenticates u and records its token.
func (c *client) login(u *researcher) bool {
	body := fmt.Appendf(nil, `{"provider":"shibboleth","username":%q,"secret":%q}`, u.name, "pw-"+u.name)
	status, out := c.do("POST", "/login", "", body)
	var resp struct{ Token string }
	if status != http.StatusOK || json.Unmarshal(out, &resp) != nil || resp.Token == "" {
		return false
	}
	u.token = resp.Token
	return true
}

// getJSON sends a GET and decodes a 200 reply into v.
func (c *client) getJSON(path, token string, v any) bool {
	status, out := c.do("GET", path, token, nil)
	return status == http.StatusOK && json.Unmarshal(out, v) == nil
}

type serverList struct {
	Servers []tukey.TaggedServer `json:"servers"`
}

func (l serverList) ids() []string {
	ids := make([]string, len(l.Servers))
	for i, s := range l.Servers {
		ids[i] = s.ID
	}
	return ids
}

// instances checks that u's listing holds exactly its parked VMs and the
// VM the write walk has live.
func (c *client) instances(u *researcher) bool {
	want := u.parked
	if u.liveID != "" {
		want = append(slices.Clip(want), u.liveID)
	}
	var resp serverList
	return c.getJSON("/console/instances", u.token, &resp) && slices.Equal(resp.ids(), want)
}

// usage checks /console/usage answers for u.
func (c *client) usage(u *researcher) bool {
	var resp struct{ User string }
	return c.getJSON("/console/usage", u.token, &resp) && resp.User == u.name
}

// datasets checks the catalog search finds every matching dataset.
func (c *client) datasets(u *researcher) bool {
	var resp struct{ Datasets []json.RawMessage }
	return c.getJSON("/console/datasets?q="+datasetQuery, u.token, &resp) && len(resp.Datasets) == c.rig.datasetHits
}

// status checks the federation status lists both clouds.
func (c *client) status(u *researcher) bool {
	var resp struct{ Clouds []string }
	return c.getJSON("/console/status", u.token, &resp) && len(resp.Clouds) == 2
}

// launch starts u's scratch VM. console-load launches on Sullivan only;
// here the seed picks the cloud, so that writes also reach Adler, which
// carries the background population.
func (c *client) launch(u *researcher) bool {
	cloud := core.ClusterAdler
	if c.rng.IntN(2) == 1 {
		cloud = core.ClusterSullivan
	}
	body := fmt.Appendf(nil, `{"cloud":%q,"name":"%s-%d","flavor":"m1.small"}`, cloud, u.name, u.launches)
	status, out := c.do("POST", "/console/launch", u.token, body)
	var resp struct{ Server tukey.TaggedServer }
	if status != http.StatusAccepted || json.Unmarshal(out, &resp) != nil || resp.Server.ID == "" {
		return false
	}
	u.liveCloud, u.liveID = cloud, resp.Server.ID
	u.launches++
	return true
}

// terminate stops the VM launch started; with none live it fails.
func (c *client) terminate(u *researcher) bool {
	if u.liveID == "" {
		return false
	}
	body := fmt.Appendf(nil, `{"cloud":%q,"id":%q}`, u.liveCloud, u.liveID)
	if status, _ := c.do("POST", "/console/terminate", u.token, body); status != http.StatusOK {
		return false
	}
	u.liveCloud, u.liveID = "", ""
	u.terminates++
	return true
}

// loop runs closed-loop operations until the deadline.
func (c *client) loop(deadline time.Time) {
	walk := c.rig.w.walk
	for time.Now().Before(deadline) {
		u := c.users[c.rng.IntN(len(c.users))]
		c.check(walk[u.next%len(walk)](c, u))
		u.next++
	}
}

// resetWindow clears the per-window samples and sets their time origin.
func (c *client) resetWindow(origin time.Time) {
	c.origin = origin
	c.starts, c.lat, c.failed = c.starts[:0], c.lat[:0], 0
}

// eachInstance visits every researcher's instances on both clouds.
func (r *rig) eachInstance(visit func(u *researcher, inst *iaas.Instance)) {
	for _, c := range r.clients {
		for _, u := range c.users {
			for _, cloud := range []*iaas.Cloud{r.f.Adler, r.f.Sullivan} {
				for _, inst := range cloud.Instances(u.name) {
					visit(u, inst)
				}
			}
		}
	}
}

// liveMatchesLedger checks, after console-grid-write, that every
// researcher's live instances on the clouds equal launches − terminations.
func (r *rig) liveMatchesLedger() error {
	live := map[*researcher]int{}
	r.eachInstance(func(u *researcher, inst *iaas.Instance) {
		if inst.State != iaas.StateTerminated {
			live[u]++
		}
	})
	for _, c := range r.clients {
		for _, u := range c.users {
			if live[u] != u.launches-u.terminates {
				return fmt.Errorf("%s has %d live instances, but %d launches − %d terminations",
					u.name, live[u], u.launches, u.terminates)
			}
		}
	}
	return nil
}

// researcherTerminated counts researcher instances in TERMINATED state.
func (r *rig) researcherTerminated() int {
	n := 0
	r.eachInstance(func(_ *researcher, inst *iaas.Instance) {
		if inst.State == iaas.StateTerminated {
			n++
		}
	})
	return n
}
