package cloudapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// testCloud builds a tiny cloud for clock-plane tests. Names must be
// unique per test federation: the coordinator keys its skew stats by them.
func testCloud(e *sim.Engine, name, stack string) *iaas.Cloud {
	c := iaas.NewCloud(e, name, stack, "test-site")
	c.AddRack("r1", 2)
	return c
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClockPlaneFreeRunSite: a free-run site's clock is readable over the
// wire but rejects sync targets with the free-running conflict.
func TestClockPlaneFreeRunSite(t *testing.T) {
	e := sim.NewEngine(1)
	site, err := StartSite(e, testCloud(e, "clock-test", "openstack"), 0) // frozen free-run clock
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	r := site.Remote()

	st, err := r.Clock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "free-run" || st.Now != 0 {
		t.Fatalf("clock status = %+v, want free-run at 0", st)
	}
	if err := r.ClockSync(context.Background(), 100); !errors.Is(err, ErrFreeRunning) {
		t.Fatalf("sync against free-run site: %v, want ErrFreeRunning", err)
	}
	if site.Follower() != nil {
		t.Fatal("free-run site has a follower")
	}
}

// TestClockPlaneFollowSite: pushed targets advance a followed site's engine
// to the target and never past it, visible both in-process and over the
// wire.
func TestClockPlaneFollowSite(t *testing.T) {
	e := sim.NewEngine(2)
	site, err := StartSiteWithOptions(e, testCloud(e, "clock-test", "eucalyptus"),
		SiteOptions{Clock: ClockFollow, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	r := site.Remote()

	if err := r.ClockSync(context.Background(), sim.Time(5*sim.Minute)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return e.Now() >= sim.Time(5*sim.Minute) },
		"followed site never reached the pushed target")
	if now := e.Now(); now != sim.Time(5*sim.Minute) {
		t.Fatalf("followed site overshot the target: %v", now)
	}
	st, err := r.Clock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "follow" || st.Now != float64(5*sim.Minute) || st.Target != float64(5*sim.Minute) {
		t.Fatalf("clock status = %+v, want follow at 300", st)
	}
}

// TestClockPlaneNoClock pins the pre-clock-plane contract: a bare Server
// with no ClockPlane answers 404 on both clock routes.
func TestClockPlaneNoClock(t *testing.T) {
	e := sim.NewEngine(3)
	srv := httptest.NewServer(NewServer(testCloud(e, "clock-test", "openstack")))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/cloudapi/clock")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET clock on clockless server: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/cloudapi/clock", "application/json", strings.NewReader(`{"target":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST clock on clockless server: %d, want 404", resp.StatusCode)
	}
}

// TestClockSyncRejectsBadTargets: malformed and negative targets are 400s,
// not clock movements.
func TestClockSyncRejectsBadTargets(t *testing.T) {
	e := sim.NewEngine(4)
	site, err := StartSiteWithOptions(e, testCloud(e, "clock-test", "openstack"),
		SiteOptions{Clock: ClockFollow, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	for _, body := range []string{`{"target":-5}`, `not json`} {
		resp, err := http.Post(site.URL+"/cloudapi/clock", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: %d, want 400", body, resp.StatusCode)
		}
	}
	if e.Now() != 0 {
		t.Fatalf("bad targets moved the clock to %v", e.Now())
	}
}

// TestCoordinatorBoundsSkew is the clock plane working end to end in one
// process: a console engine free-runs while a coordinator pushes its time
// to two followed sites over real HTTP. Every site must track the console
// within one sync interval (the follower contract), measured as
// skew-beyond-one-actual-interval staying far below the interval's virtual
// span.
func TestCoordinatorBoundsSkew(t *testing.T) {
	const speedup = 60_000
	syncEvery := 10 * time.Millisecond

	console := sim.NewEngine(10)
	var sites []*Site
	var targets []ClockSyncTarget
	for i, stack := range []string{"openstack", "eucalyptus"} {
		e := sim.NewEngine(uint64(20 + i))
		site, err := StartSiteWithOptions(e, testCloud(e, fmt.Sprintf("clock-site-%d", i), stack),
			SiteOptions{Clock: ClockFollow, Tick: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer site.Close()
		sites = append(sites, site)
		targets = append(targets, site.Remote())
	}

	driver := sim.StartDriver(console, speedup, time.Millisecond)
	defer driver.Stop()
	coord := StartClockCoordinator(console, syncEvery, targets...)
	defer coord.Stop()

	waitUntil(t, 10*time.Second, func() bool { return coord.Syncs() >= 20 },
		"coordinator completed too few sync rounds")
	coord.Stop()
	driver.Stop()

	// Every site synced, none errored, and none ran past the console.
	consoleNow := console.Now()
	for i, st := range coord.Stats() {
		if st.Syncs < 5 {
			t.Errorf("site %s completed %d syncs, want >= 5", st.Site, st.Syncs)
		}
		if st.Errors > 0 {
			t.Errorf("site %s saw %d sync errors", st.Site, st.Errors)
		}
		if siteNow := sites[i].Engine.Now(); siteNow > consoleNow {
			t.Errorf("site %s ran past the console: %v > %v", st.Site, siteNow, consoleNow)
		}
	}
	// The skew bound: observed skew beyond one actual sync interval stays
	// well inside the virtual span of a single interval. Slack covers one
	// follower tick plus the clock-read round trip, both in virtual time.
	bound := speedup * syncEvery.Seconds()
	if excess := coord.MaxExcess(); excess > bound {
		t.Fatalf("skew exceeded one sync interval by %.0f virtual s (bound %.0f): %+v",
			excess, bound, coord.Stats())
	}
	if coord.MaxSkew() <= 0 {
		t.Fatal("coordinator observed no skew at all; measurement is broken")
	}
}

// lateClock is a followed site whose clock read hangs past every round
// deadline, ignoring ctx, and answers only once released: with an error,
// or (succeed) with a reading, after which it accepts the push.
type lateClock struct {
	succeed bool
	release chan struct{}
	settled atomic.Int64 // late answers delivered, push included
}

func (f *lateClock) Name() string { return "late-site" }

func (f *lateClock) Clock(context.Context) (ClockStatus, error) {
	<-f.release
	if !f.succeed {
		defer f.settled.Add(1)
		return ClockStatus{}, errors.New("late clock read failed")
	}
	return ClockStatus{Mode: ClockFollow.String()}, nil
}

func (f *lateClock) ClockSync(context.Context, sim.Time) error {
	defer f.settled.Add(1)
	return nil
}

// TestCoordinatorSettlesLateSiteOnce is the clock double-count
// regression: a site that misses the round deadline counts exactly one
// error for that round, and its late answer — an error, or a reading
// followed by an accepted push — adds neither a second error, nor a sync,
// nor a push time.
func TestCoordinatorSettlesLateSiteOnce(t *testing.T) {
	for _, succeed := range []bool{false, true} {
		t.Run(fmt.Sprintf("succeed=%v", succeed), func(t *testing.T) {
			site := &lateClock{succeed: succeed, release: make(chan struct{})}
			coord := StartClockCoordinator(sim.NewEngine(1), 200*time.Millisecond, site)
			waitUntil(t, 5*time.Second, func() bool { return coord.Stats()[0].Errors >= 1 },
				"hung site never missed a round")
			coord.Stop()
			rounds := coord.Stats()[0].Errors

			close(site.release)
			waitUntil(t, 5*time.Second, func() bool { return site.settled.Load() == rounds },
				"late answers never arrived")
			// The late answers are in; give any stray accounting they
			// trigger time to land before reading the verdict.
			for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
				st := coord.Stats()[0]
				if st.Errors != rounds || st.Syncs != 0 {
					t.Fatalf("after %d missed rounds: %d errors, %d syncs; want %d, 0",
						rounds, st.Errors, st.Syncs, rounds)
				}
				coord.mu.Lock()
				_, pushed := coord.lastPush[site.Name()]
				coord.mu.Unlock()
				if pushed {
					t.Fatal("a late push was recorded as the site's last push")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestCoordinatorCancelsHungClockPlane: a site whose clock plane never
// answers has its request cancelled at the round deadline, not left to
// the client's 10 s timeout, and every goroutine the round started exits.
func TestCoordinatorCancelsHungClockPlane(t *testing.T) {
	const interval = 200 * time.Millisecond // per-site deadline: 100 ms
	const deadline, slack = 100 * time.Millisecond, 500 * time.Millisecond
	cancelled := make(chan time.Duration, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		<-r.Context().Done()
		select {
		case cancelled <- time.Since(start):
		default:
		}
	}))
	defer hung.Close()
	base := runtime.NumGoroutine()

	coord := StartClockCoordinator(sim.NewEngine(1), interval, NewRemote("hung-plane", "openstack", hung.URL, nil))
	select {
	case waited := <-cancelled:
		if waited > deadline+slack {
			t.Errorf("clock read cancelled after %v, want within %v", waited, deadline+slack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung clock read was never cancelled")
	}
	coord.Stop()
	if st := coord.Stats()[0]; st.Errors < 1 || st.Syncs != 0 {
		t.Errorf("hung site stats = %+v, want errors and no syncs", st)
	}
	waitUntil(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= base },
		"goroutines never returned to their pre-round baseline")
}
