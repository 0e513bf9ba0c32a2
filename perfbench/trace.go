package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/tukey"
)

// requestHeader carries the load client's request id. lb.Pool clones
// every request header onto the replica call, so the console sees it too.
const requestHeader = "X-Request-Id"

// layer names one boundary a span is recorded at.
type layer uint8

const (
	layerNone        layer = iota
	layerClient            // the load client's round trip
	layerLB                // lb.Pool's http.Handler
	layerConsole           // tukey.Console's http.Handler
	layerSession           // a replica's tukey.SessionStore call
	layerAllow             // a replica's tukey.Limiter call
	layerStateServer       // tukeystate.Server's http.Handler
	layerCloud             // the console's cloudapi.CloudAPI call
	layerCloudServer       // cloudapi.Server's http.Handler
	layerBilling           // the biller's cloudapi.CloudAPI call
	layerMonitor           // the usage monitor's cloudapi.CloudAPI call
	numLayers
)

var layerNames = [numLayers]string{"-", "client", "lb", "console", "session", "allow",
	"state.server", "cloud", "cloud.server", "billing", "monitor"}

// Cloud call operations, kept on spans of the CloudAPI layers.
const (
	opNone uint8 = iota
	opInstances
	opLaunch
	opTerminate
	opUsage
	numOps
)

var opNames = [numOps]string{"-", "instances", "launch", "terminate", "usage"}

// span is one timed call at a layer boundary: its layer, the layer of the
// span that caused it, the request it belongs to (0 = background work
// such as a poller) and its start and end in nanoseconds since the
// tracer's epoch.
type span struct {
	layer, parent layer
	op            uint8
	status        uint16 // HTTP status a traced handler wrote
	req           int64
	start, end    int64
}

// tracer keeps spans in memory while on. Wrappers built from it check on
// before doing any work, so a tracer that is off costs one atomic load
// per call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	attr  *attributor

	mu    sync.Mutex
	spans []span

	// tokens maps session tokens to users, learnt from SessionStore.Put
	// (the session carries the identity), so a Get can be attributed.
	tokens sync.Map

	// monitorCalls counts the usage monitor's per-cloud samples, traced
	// or not; cloudErrors counts failed CloudAPI calls of every caller.
	monitorCalls atomic.Int64
	cloudErrors  atomic.Int64
}

func newTracer(attr *attributor) *tracer {
	return &tracer{epoch: time.Now(), attr: attr, spans: make([]span, 0, 1<<19)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps an http.Handler whose requests carry the request header.
func (t *tracer) handler(l, parent layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := t.now()
		h.ServeHTTP(sw, r)
		t.record(span{layer: l, parent: parent, status: uint16(sw.status), req: req, start: start, end: t.now()})
	})
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// stateHandler wraps the tukeystate server. Its calls carry no request
// header; the token or limiter key in the body names the user.
func (t *tracer) stateHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		parent, user := layerAllow, jsonField(body, "key")
		if token := jsonField(body, "token"); token != "" {
			parent, user = layerSession, ""
			if u, ok := t.tokens.Load(token); ok {
				user = u.(string)
			}
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{layer: layerStateServer, parent: parent, req: t.attr.request(user), start: start, end: t.now()})
	})
}

// jsonField returns the string value of a top-level "name" field in a
// small JSON object without decoding it, "" when absent. The state
// plane's request bodies carry plain identifiers, so no unescaping is
// needed.
func jsonField(body []byte, name string) string {
	key := `"` + name + `":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// cloudHandler wraps a cloudapi.Server. Tenant calls name their user in
// the native dialect (Nova's X-Auth-User header, EC2's AWSAccessKeyId
// parameter); operator-plane polls name none and stay background work.
func (t *tracer) cloudHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		user := r.Header.Get("X-Auth-User")
		if user == "" {
			user = r.URL.Query().Get("AWSAccessKeyId")
		}
		parent, req := layerNone, int64(0)
		if user != "" {
			parent, req = layerCloud, t.attr.request(user)
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{layer: layerCloudServer, parent: parent, req: req, start: start, end: t.now()})
	})
}

// tracedStore times a replica's session store calls.
type tracedStore struct {
	tukey.SessionStore
	t *tracer
}

func (s tracedStore) Get(token string) (tukey.Session, bool) {
	if !s.t.on.Load() {
		return s.SessionStore.Get(token)
	}
	start := s.t.now()
	sess, ok := s.SessionStore.Get(token)
	user, _ := s.t.tokens.Load(token)
	name, _ := user.(string)
	s.t.record(span{layer: layerSession, parent: layerConsole, req: s.t.attr.request(name), start: start, end: s.t.now()})
	return sess, ok
}

func (s tracedStore) Put(token string, sess tukey.Session) {
	user := userOf(sess.Identity.Identifier)
	s.t.tokens.Store(token, user)
	if !s.t.on.Load() {
		s.SessionStore.Put(token, sess)
		return
	}
	start := s.t.now()
	s.SessionStore.Put(token, sess)
	s.t.record(span{layer: layerSession, parent: layerConsole, req: s.t.attr.request(user), start: start, end: s.t.now()})
}

// tracedLimiter times a replica's admission calls; the key is the user's
// identifier (or the attempted username on /login).
type tracedLimiter struct {
	tukey.Limiter
	t *tracer
}

func (l tracedLimiter) AllowN(key string, cost float64) bool {
	if !l.t.on.Load() {
		return l.Limiter.AllowN(key, cost)
	}
	start := l.t.now()
	ok := l.Limiter.AllowN(key, cost)
	l.t.record(span{layer: layerAllow, parent: layerConsole, req: l.t.attr.request(key), start: start, end: l.t.now()})
	return ok
}

// tracedCloud times the calls one caller — the console, the biller or the
// usage monitor, named by l — makes through its CloudAPI.
type tracedCloud struct {
	cloudapi.CloudAPI
	t *tracer
	l layer
}

func (c tracedCloud) call(op uint8, user string, fn func() error) {
	if c.l == layerMonitor {
		c.t.monitorCalls.Add(1)
	}
	if !c.t.on.Load() {
		if fn() != nil {
			c.t.cloudErrors.Add(1)
		}
		return
	}
	parent, req := layerNone, int64(0)
	if c.l == layerCloud {
		parent, req = layerConsole, c.t.attr.request(user)
	}
	start := c.t.now()
	err := fn()
	c.t.record(span{layer: c.l, parent: parent, op: op, req: req, start: start, end: c.t.now()})
	if err != nil {
		c.t.cloudErrors.Add(1)
	}
}

func (c tracedCloud) Instances(user string) (out []cloudapi.Instance, err error) {
	c.call(opInstances, user, func() error { out, err = c.CloudAPI.Instances(user); return err })
	return out, err
}

func (c tracedCloud) Launch(user, name, flavor, image string) (out cloudapi.Instance, err error) {
	c.call(opLaunch, user, func() error { out, err = c.CloudAPI.Launch(user, name, flavor, image); return err })
	return out, err
}

func (c tracedCloud) Terminate(user, id string) (err error) {
	c.call(opTerminate, user, func() error { err = c.CloudAPI.Terminate(user, id); return err })
	return err
}

func (c tracedCloud) UsageSince(since int64) (out cloudapi.UsageDelta, err error) {
	c.call(opUsage, "", func() error { out, err = c.CloudAPI.UsageSince(since); return err })
	return out, err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as tab-separated lines (layer, op, parent,
// request, start ns, end ns) to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\top\tparent\treq\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\n", layerNames[s.layer], opNames[s.op],
			layerNames[s.parent], s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
