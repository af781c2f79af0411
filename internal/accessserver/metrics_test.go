package accessserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/metrics"
	"batterylab/internal/simclock"
)

func snapGauge(t *testing.T, snap metrics.Snapshot, name string, labels ...metrics.Label) float64 {
	t.Helper()
	m, ok := snap.Get(name, labels...)
	if !ok {
		t.Fatalf("metric %s%v missing from snapshot", name, labels)
	}
	return m.Value
}

// TestMetricsEndpoint exercises /api/v1/metrics in both exposition
// formats plus its RBAC and format validation.
func TestMetricsEndpoint(t *testing.T) {
	v := newV1Rig(t)

	resp := v.request(t, "GET", "/api/v1/metrics", v.admin.Token, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content-type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE blab_builds_submitted_total counter",
		"blab_builds_finished_total{result=\"success\"}",
		"blab_dispatch_latency_seconds{quantile=\"0.99\"}",
		"blab_dispatch_latency_seconds_count",
		"# TYPE blab_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	resp = v.request(t, "GET", "/api/v1/metrics?format=json", v.admin.Token, "")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json status = %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("json exposition does not parse: %v", err)
	}
	if got := snapGauge(t, snap, "blab_builds_submitted_total"); got < 2 {
		t.Errorf("submitted = %v, want >= 2 (seed build + campaign)", got)
	}

	for _, c := range []struct {
		path, token string
		want        int
	}{
		{"/api/v1/metrics?format=xml", v.admin.Token, http.StatusBadRequest},
		{"/api/v1/metrics", v.tst.Token, http.StatusForbidden},
		{"/api/v1/metrics", "", http.StatusUnauthorized},
	} {
		resp := v.request(t, "GET", c.path, c.token, "")
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s (token %q) = %d, want %d", c.path, c.token, resp.StatusCode, c.want)
		}
	}
}

// TestHealthEndpoints covers the unauthenticated liveness and readiness
// probes, including the durability gate.
func TestHealthEndpoints(t *testing.T) {
	v := newV1Rig(t)

	resp := v.request(t, "GET", "/healthz", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 without credentials", resp.StatusCode)
	}
	resp.Body.Close()

	// No durability expected: ready even without a store.
	resp = v.request(t, "GET", "/readyz", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200 when durability is optional", resp.StatusCode)
	}
	resp.Body.Close()

	// Declared durable but no store attached yet: not ready.
	v.srv.ExpectDurable()
	resp = v.request(t, "GET", "/readyz", "", "")
	var ready struct {
		Ready         bool `json:"ready"`
		StoreAttached bool `json:"store_attached"`
		Durable       bool `json:"durable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz before attach = %d ready=%v, want 503 not-ready", resp.StatusCode, ready.Ready)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	resp = v.request(t, "GET", "/readyz", "", "")
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready || !ready.StoreAttached {
		t.Fatalf("readyz after attach = %d %+v, want 200 ready", resp.StatusCode, ready)
	}
}

// TestPprofRBAC: the profiling handlers ride the operator permission —
// admins in, experimenters and anonymous callers out.
func TestPprofRBAC(t *testing.T) {
	v := newV1Rig(t)
	cases := []struct {
		token string
		want  int
	}{
		{v.admin.Token, http.StatusOK},
		{v.exp.Token, http.StatusForbidden},
		{"", http.StatusUnauthorized},
	}
	for _, c := range cases {
		resp := v.request(t, "GET", "/debug/pprof/", c.token, "")
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("pprof index with token %q = %d, want %d", c.token, resp.StatusCode, c.want)
		}
	}
	resp := v.request(t, "GET", "/debug/pprof/goroutine?debug=1", v.admin.Token, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("goroutine profile = %d, body %.60q", resp.StatusCode, body)
	}
}

// churnBackend finishes builds on the virtual clock after an ID-derived
// delay; every 7th build fails, and build 1 outruns its event buffer by
// five. Enough variety to populate every scheduler and feed counter.
type churnBackend struct{ clk *simclock.Virtual }

func (cb churnBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	cons := Constraints{Node: spec.Node, Device: spec.Device, Fallback: true}
	run := func(ctx *BuildContext, done func(error)) {
		id := ctx.Build.ID
		if id == 1 {
			for i := 0; i < feedhub.EventCap+5; i++ {
				ctx.Build.Feed().PostEvent(api.BuildEvent{Build: id, Phase: "chatter"})
			}
		}
		cb.clk.AfterFunc(time.Duration(1+id%4)*time.Second, func() {
			if id%7 == 0 {
				done(fmt.Errorf("synthetic failure %d", id))
				return
			}
			done(nil)
		})
	}
	return cons, run, nil
}

func (churnBackend) WorkloadNames() []string { return []string{"churn"} }

// TestMetricsConsistentUnderChurn hammers the scheduler with 120
// concurrently submitted builds (plus aborts) while parallel readers
// take registry snapshots, and requires every snapshot to satisfy the
// accounting identity
//
//	submitted == queued + running + finished(success|failure|aborted)
//
// which only holds if the collector observes the scheduler atomically.
// Run with -race; the final tallies are also reconciled against the
// builds' terminal states.
func TestMetricsConsistentUnderChurn(t *testing.T) {
	r := newRig(t)
	r.srv.SetSpecBackend(churnBackend{clk: r.clk})

	const builds = 120
	var (
		mu  sync.Mutex
		all []*Build
	)
	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := 0; i < builds/4; i++ {
				b, err := r.srv.SubmitSpec(r.admin, api.ExperimentSpec{
					Node: "node1", Device: "dev1",
					Workload: api.WorkloadSpec{Name: "churn"},
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				all = append(all, b)
				if b.ID%11 == 0 {
					r.srv.Abort(r.admin, b.ID) // races the scheduler on purpose
				}
				mu.Unlock()
			}
		}(g)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.srv.MetricsSnapshot()
				submitted := snapGauge(t, snap, "blab_builds_submitted_total")
				queued := snapGauge(t, snap, "blab_queue_depth")
				running := snapGauge(t, snap, "blab_builds_running")
				finished := snapGauge(t, snap, "blab_builds_finished_total", metrics.Label{Name: "result", Value: "success"}) +
					snapGauge(t, snap, "blab_builds_finished_total", metrics.Label{Name: "result", Value: "failure"}) +
					snapGauge(t, snap, "blab_builds_finished_total", metrics.Label{Name: "result", Value: "aborted"})
				if submitted != queued+running+finished {
					t.Errorf("snapshot inconsistent: submitted %v != %v queued + %v running + %v finished",
						submitted, queued, running, finished)
					return
				}
			}
		}()
	}

	// Drive the virtual clock until every build settles, while readers
	// and submitters race against the scheduler. The clock stalls
	// whenever the builds so far have settled ahead of the submitters.
	settling := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(all) < builds || slices.ContainsFunc(all, func(b *Build) bool { return !b.State().Terminal() })
	}
	for deadline := time.Now().Add(30 * time.Second); settling(); {
		if time.Now().After(deadline) {
			t.Fatal("builds did not settle within 30s wall time")
		}
		if err := r.clk.RunWhile(settling, nil); err != nil && !errors.Is(err, simclock.ErrStalled) {
			t.Fatal(err)
		}
	}
	submitters.Wait()
	close(stop)
	readers.Wait()

	// Final reconciliation: counters must match the terminal states.
	var succeeded, failed, aborted float64
	for _, b := range all {
		switch b.State() {
		case StateSuccess:
			succeeded++
		case StateFailure:
			failed++
		case StateAborted:
			aborted++
		}
	}
	snap := r.srv.MetricsSnapshot()
	check := func(name string, got, want float64) {
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("submitted", snapGauge(t, snap, "blab_builds_submitted_total"), builds)
	check("finished{success}", snapGauge(t, snap, "blab_builds_finished_total", metrics.Label{Name: "result", Value: "success"}), succeeded)
	check("finished{failure}", snapGauge(t, snap, "blab_builds_finished_total", metrics.Label{Name: "result", Value: "failure"}), failed)
	check("finished{aborted}", snapGauge(t, snap, "blab_builds_finished_total", metrics.Label{Name: "result", Value: "aborted"}), aborted)
	check("queue_depth", snapGauge(t, snap, "blab_queue_depth"), 0)
	check("builds_running", snapGauge(t, snap, "blab_builds_running"), 0)
	check("feed_events_posted", snapGauge(t, snap, "blab_feed_events_posted_total"), feedhub.EventCap)
	check("feed_events_dropped", snapGauge(t, snap, "blab_feed_events_dropped_total"), 5)

	dispatched, _ := snap.Get("blab_builds_dispatched_total")
	lat, ok := snap.Get("blab_dispatch_latency_seconds")
	if !ok || lat.Hist == nil {
		t.Fatal("dispatch latency histogram missing")
	}
	if float64(lat.Hist.Count) != dispatched.Value {
		t.Errorf("dispatch latency count %d != dispatched %v", lat.Hist.Count, dispatched.Value)
	}
}

// TestRequestIDAndInstrumentation: every response carries a request ID
// and the middleware accounts the route in the registry.
func TestRequestIDAndInstrumentation(t *testing.T) {
	v := newV1Rig(t)

	resp := v.request(t, "GET", "/api/v1/nodes", v.admin.Token, "")
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}

	req, err := http.NewRequest("GET", v.ts.URL+"/api/v1/nodes", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+v.admin.Token)
	req.Header.Set("X-Request-Id", "trace-me-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-7" {
		t.Errorf("caller-supplied request id not echoed: got %q", got)
	}

	// Hostile inbound IDs — log-injection payloads or oversized values —
	// must be replaced with a freshly minted ID, never echoed.
	for _, bad := range []string{
		"evil\" status=200 fake=\"",
		strings.Repeat("a", 65),
		"semi;colon",
	} {
		req, err = http.NewRequest("GET", v.ts.URL+"/api/v1/nodes", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+v.admin.Token)
		req.Header["X-Request-Id"] = []string{bad}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got == bad || got == "" {
			t.Errorf("hostile request id %q: response id %q, want fresh generated id", bad, got)
		}
	}

	snap := v.srv.MetricsSnapshot()
	m, ok := snap.Get("blab_http_requests_total",
		metrics.Label{Name: "route", Value: "GET /api/v1/nodes"},
		metrics.Label{Name: "code", Value: "200"})
	if !ok || m.Value < 2 {
		t.Errorf("http_requests_total{GET /api/v1/nodes,200} = %v %v, want >= 2", m.Value, ok)
	}
}

// TestInstrumentExposition pins what the middleware's two families look
// like on /metrics after a scripted sequence — a matched route twice, a
// 404, a 405 and a 401: which instances exist, in what order, under
// which labels, with which counts. The handles behind them are cached
// per (route, code); the exposition must not be able to tell.
func TestInstrumentExposition(t *testing.T) {
	v := newV1Rig(t)
	before := promLines(t, v)
	for _, c := range []struct {
		method, path, token string
		want                int
	}{
		{"GET", "/api/v1/nodes", v.admin.Token, http.StatusOK},
		{"GET", "/no/such/route", v.admin.Token, http.StatusNotFound},
		{"DELETE", "/healthz", "", http.StatusMethodNotAllowed},
		{"GET", "/api/v1/nodes", "", http.StatusUnauthorized},
		{"GET", "/api/v1/nodes", v.admin.Token, http.StatusOK},
	} {
		resp := v.request(t, c.method, c.path, c.token, "")
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
	var got []string
	for _, line := range promLines(t, v) {
		if !slices.Contains(before, line) {
			got = append(got, line)
		}
	}
	// Instances keep first-use order (the first scrape put its own route
	// ahead of the script's); a scrape in flight has not counted itself.
	want := []string{
		`blab_http_request_seconds_count{route="GET /api/v1/metrics"} 1`,
		`blab_http_request_seconds_count{route="GET /api/v1/nodes"} 3`,
		`blab_http_request_seconds_count{route="unmatched"} 2`,
		`blab_http_requests_total{code="200",route="GET /api/v1/metrics"} 1`,
		`blab_http_requests_total{code="200",route="GET /api/v1/nodes"} 2`,
		`blab_http_requests_total{code="404",route="unmatched"} 1`,
		`blab_http_requests_total{code="405",route="unmatched"} 1`,
		`blab_http_requests_total{code="401",route="GET /api/v1/nodes"} 1`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exposition after the script:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// promLines scrapes /api/v1/metrics and returns the request-counter
// lines and the latency family's _count lines, in exposition order.
func promLines(t *testing.T, v *v1rig) []string {
	t.Helper()
	resp := v.request(t, "GET", "/api/v1/metrics", v.admin.Token, "")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d, %v", resp.StatusCode, err)
	}
	var lines []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "blab_http_requests_total{") || strings.HasPrefix(line, "blab_http_request_seconds_count{") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestPendingGaugeCountsBackoff: a build sitting out a failover backoff is
// queued but outside the dispatch queue, and blab_queue_pending counts it
// as retry_backoff, so the gauge's reasons sum to blab_queue_depth.
func TestPendingGaugeCountsBackoff(t *testing.T) {
	cfg := faultCfg()
	cfg.RetryBackoff = time.Minute
	_, srv, _, b := lostBuild(t, cfg, nil)
	if st := statusOf(t, srv, b); st.State != "queued" || !strings.HasSuffix(st.PendingReason, "; retry 1/2 in 1m0s") {
		t.Fatalf("after the lease break the build is %s, waiting with %q; want queued in a 1 min backoff", st.State, st.PendingReason)
	}
	snap := srv.MetricsSnapshot()
	depth := snapGauge(t, snap, "blab_queue_depth")
	if dispatchable := snapGauge(t, snap, "blab_queue_dispatchable"); depth != 1 || dispatchable != 0 {
		t.Fatalf("queue depth %v, dispatchable %v; want 1 and 0", depth, dispatchable)
	}
	sum := 0.0
	for _, cat := range pendingCategories {
		sum += snapGauge(t, snap, "blab_queue_pending", metrics.Label{Name: "reason", Value: cat})
	}
	if retry := snapGauge(t, snap, "blab_queue_pending", metrics.Label{Name: "reason", Value: "retry_backoff"}); retry != 1 || sum != depth {
		t.Fatalf("blab_queue_pending counts %v in retry_backoff and %v in all; want 1 and the queue depth %v", retry, sum, depth)
	}
	checkLifecycle(t, srv, "in backoff")
}
