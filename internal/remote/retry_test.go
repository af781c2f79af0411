package remote_test

// Client-side resilience: transient HTTP failures retry with backoff,
// and severed event/sample streams reconnect from their ?from=
// cursors, so a remote run completes despite a flaky path to the
// access server.

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"batterylab"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
)

// flakyProxy fronts the real handler and injects failures:
//   - the first failEvery requests of each (method, path) pair answer
//     503 before reaching the server;
//   - the first stream request per cut path is severed after cutAfter
//     response bytes (mid-stream connection loss).
type flakyProxy struct {
	inner http.Handler

	mu        sync.Mutex
	failEvery int
	seen      map[string]int
	cutAfter  int
	cutDone   map[string]bool
	severed   map[string]bool     // budget actually exhausted, stream dropped
	fromSeen  map[string][]string // path -> ?from= values observed
}

func newFlakyProxy(inner http.Handler, failFirst, cutAfter int) *flakyProxy {
	return &flakyProxy{
		inner:     inner,
		failEvery: failFirst,
		seen:      map[string]int{},
		cutAfter:  cutAfter,
		cutDone:   map[string]bool{},
		severed:   map[string]bool{},
		fromSeen:  map[string][]string{},
	}
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.Path
	stream := strings.HasSuffix(r.URL.Path, "/events") || strings.HasSuffix(r.URL.Path, "/samples")
	p.mu.Lock()
	p.seen[key]++
	nth := p.seen[key]
	if stream {
		p.fromSeen[r.URL.Path] = append(p.fromSeen[r.URL.Path], r.URL.Query().Get("from"))
	}
	// Submissions are never failed: the client intentionally does not
	// retry them, and the test wants the run to proceed.
	inject := r.Method == http.MethodGet && nth <= p.failEvery
	cut := stream && p.cutAfter > 0 && !p.cutDone[r.URL.Path] && nth > p.failEvery
	if cut {
		p.cutDone[r.URL.Path] = true
	}
	p.mu.Unlock()

	if inject {
		http.Error(w, "bad gateway (injected)", http.StatusBadGateway)
		return
	}
	if cut {
		path := r.URL.Path
		p.inner.ServeHTTP(&cutWriter{w: w, budget: p.cutAfter, onCut: func() {
			p.mu.Lock()
			p.severed[path] = true
			p.mu.Unlock()
		}}, r)
		return
	}
	p.inner.ServeHTTP(w, r)
}

func (p *flakyProxy) requests(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[key]
}

func (p *flakyProxy) froms(path string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.fromSeen[path]...)
}

func (p *flakyProxy) wasCut(path string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.severed[path]
}

// cutWriter passes bytes through until its budget is spent, then
// severs the connection (http.ErrAbortHandler drops it without a
// graceful close — the mid-stream loss a flaky network produces).
// What was written before the cut is flushed first, so the client
// provably received a prefix and must resume from a positive cursor.
type cutWriter struct {
	w      http.ResponseWriter
	budget int
	onCut  func()
}

func (c *cutWriter) Header() http.Header { return c.w.Header() }

func (c *cutWriter) WriteHeader(code int) { c.w.WriteHeader(code) }

func (c *cutWriter) Write(b []byte) (int, error) {
	if c.budget <= 0 {
		c.Flush()
		if c.onCut != nil {
			c.onCut()
		}
		panic(http.ErrAbortHandler)
	}
	c.budget -= len(b)
	return c.w.Write(b)
}

func (c *cutWriter) Flush() {
	if f, ok := c.w.(http.Flusher); ok {
		f.Flush()
	}
}

// serveFlaky is lab.serve with the flaky proxy in the path. With
// drive=false the caller paces the virtual clock itself.
func serveFlaky(t *testing.T, l *lab, failFirst, cutAfter int, drive bool) (*remote.Platform, *flakyProxy) {
	t.Helper()
	token, err := batterylab.NewAPIToken(l.plat, "tester-"+t.Name(), "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	proxy := newFlakyProxy(l.plat.Access.Handler(), failFirst, cutAfter)
	ts := httptest.NewServer(proxy)
	closeOnCleanup(t, ts)
	if drive {
		stop := make(chan struct{})
		t.Cleanup(func() { close(stop) })
		go batterylab.DriveBuilds(l.clock, l.plat, stop)
	}
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(remote.RetryPolicy{Attempts: 6, BaseDelay: 5 * time.Millisecond, MaxDelay: 40 * time.Millisecond})
	return client, proxy
}

// idleSpec is a deliberately long (10 simulated minutes) idle run:
// the reconnect test must sever the stream while plenty of run
// remains, and at simulation speed the length costs no real time.
func idleSpec(l *lab) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: l.nodes[0], Device: l.devices[0],
		Monitor:  api.MonitorSpec{SampleRateHz: 200},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 600000}},
	}
}

// TestRetryTransientFailures: every GET's first attempt answers 502,
// yet the run completes because the client retries with backoff.
func TestRetryTransientFailures(t *testing.T) {
	l := newLab(t)
	client, proxy := serveFlaky(t, l, 1, 0, true)

	sess, err := client.StartExperiment(nil, idleSpec(l))
	if err != nil {
		t.Fatalf("submit with transient failures: %v", err)
	}
	res, err := sess.Wait(nil)
	if err != nil {
		t.Fatalf("run with transient failures: %v", err)
	}
	if res.Current.Len() == 0 {
		t.Fatal("empty trace after retried run")
	}
	// The node listing is a clean probe of request-level retry: first
	// attempt 502, second through.
	if _, err := client.Nodes(nil); err != nil {
		t.Fatalf("nodes listing with injected 502: %v", err)
	}
	if n := proxy.requests("GET /api/v1/nodes"); n < 2 {
		t.Fatalf("nodes listing reached the proxy %d times, want >= 2 (retry)", n)
	}
}

// TestStreamReconnect: the event stream is severed mid-run while the
// virtual clock is frozen, so the build is provably still running when
// the client reconnects; the reconnect resumes from the ?from= cursor
// and the session still delivers every sample exactly once.
func TestStreamReconnect(t *testing.T) {
	l := newLab(t)
	client, proxy := serveFlaky(t, l, 0, 256, false)

	var mu sync.Mutex
	var seen []int64
	obs := batterylab.ObserverFuncs{
		Sample: func(s batterylab.Sample) { mu.Lock(); seen = append(seen, s.At.UnixNano()); mu.Unlock() },
	}
	sess, err := client.StartExperiment(nil, idleSpec(l), obs)
	if err != nil {
		t.Fatal(err)
	}
	eventsPath := "/api/v1/builds/" + strconv.Itoa(sess.Build()) + "/events"

	// Step simulated time only until the proxy severs the event stream,
	// then freeze the clock: the run is mid-flight and stays there. The
	// per-step throttle keeps the stream handler (which writes events on
	// its own goroutine) well ahead of simulated time, so the cut lands
	// during the run's first phase transitions, minutes of simulated
	// time before the finish.
	deadline := time.Now().Add(10 * time.Second)
	for !proxy.wasCut(eventsPath) {
		if time.Now().After(deadline) {
			t.Fatal("event stream never reached the cut budget")
		}
		l.clock.Step()
		time.Sleep(100 * time.Microsecond)
	}
	// With time frozen the build cannot finish; the only way a second
	// /events request appears is the client's reconnect logic.
	for len(proxy.froms(eventsPath)) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected the severed event stream")
		}
		time.Sleep(time.Millisecond)
	}

	// Resume time and let the run complete.
	stop := make(chan struct{})
	defer close(stop)
	go batterylab.DriveBuilds(l.clock, l.plat, stop)
	res, err := sess.Wait(nil)
	if err != nil {
		t.Fatalf("run with severed streams: %v", err)
	}
	if res.Current.Len() == 0 {
		t.Fatal("empty trace after reconnected run")
	}

	froms := proxy.froms(eventsPath)
	if len(froms) < 2 {
		t.Fatalf("event stream connected %d times, want >= 2 (reconnect)", len(froms))
	}
	resumed := false
	for _, f := range froms[1:] {
		if n, err := strconv.Atoi(f); err == nil && n > 0 {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no reconnect carried a positive ?from= cursor: %v", froms)
	}
	// Exactly-once delivery across the cut: the observer saw the points
	// of the build's feed, each once, in order.
	b, err := l.plat.Access.Build(sess.Build())
	if err != nil {
		t.Fatal(err)
	}
	pts, _, _ := b.Feed().SamplesSince(0)
	mu.Lock()
	got := seen
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("observer saw no samples")
	}
	if len(got) != len(pts) {
		t.Fatalf("observer delivered %d samples, the feed holds %d — duplicate or lost samples across the reconnect", len(got), len(pts))
	}
	for i, at := range got {
		if at != pts[i].AtNS {
			t.Fatalf("sample %d at %d, the feed's is at %d — duplicate or lost samples across the reconnect", i, at, pts[i].AtNS)
		}
	}
}

// artifactProxy records the length the server declares on every
// artifact response and cuts the first one off halfway through it.
type artifactProxy struct {
	inner http.Handler

	mu      sync.Mutex
	lengths map[string][]string // path -> declared Content-Length per response
	cut     bool
}

func (p *artifactProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.URL.Path, "/artifacts/") {
		p.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	p.mu.Lock()
	p.lengths[r.URL.Path] = append(p.lengths[r.URL.Path], rec.Header().Get("Content-Length"))
	cut := !p.cut
	p.cut = true
	p.mu.Unlock()
	maps.Copy(w.Header(), rec.Header())
	w.WriteHeader(rec.Code)
	body := rec.Body.Bytes()
	if cut {
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	w.Write(body)
}

// TestArtifactDeclaredLength: an artifact response declares its
// length, and a body that ends short of it is retried like a dropped
// connection, so the run's trace still arrives whole.
func TestArtifactDeclaredLength(t *testing.T) {
	l := newLab(t)
	token, err := batterylab.NewAPIToken(l.plat, "tester-"+t.Name(), "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	proxy := &artifactProxy{inner: l.plat.Access.Handler(), lengths: map[string][]string{}}
	ts := httptest.NewServer(proxy)
	closeOnCleanup(t, ts)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go batterylab.DriveBuilds(l.clock, l.plat, stop)
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(remote.RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond})

	spec := idleSpec(l)
	spec.Monitor.SampleRateHz = 5000
	// 20 s at 5 kHz: 100 000 samples, about 100 KB as stored.
	spec.Workload.Params = api.Params{"duration_ms": 20000}
	sess, err := client.StartExperiment(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait(nil)
	if err != nil {
		t.Fatalf("run with a truncated artifact: %v", err)
	}
	trace, err := client.Artifact(nil, sess.Build(), core.ArtifactCurrentTrace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current.Len() < 10000 || len(trace) < 64<<10 {
		t.Fatalf("%d samples in a %d-byte trace: want one larger than the server's write buffer", res.Current.Len(), len(trace))
	}

	path := "/api/v1/builds/" + strconv.Itoa(sess.Build()) + "/artifacts/" + core.ArtifactCurrentTrace
	proxy.mu.Lock()
	defer proxy.mu.Unlock()
	declared := proxy.lengths[path]
	if len(declared) < 3 { // the cut fetch, its retry, the fetch above
		t.Fatalf("trace fetched %d times, want the cut fetch retried", len(declared))
	}
	for _, n := range declared {
		if n != strconv.Itoa(len(trace)) {
			t.Fatalf("declared lengths %v, want %d on every response", declared, len(trace))
		}
	}
}

// TestRequestIDAcrossRetries: a call's first attempt meets a 503 and is
// retried. Both attempts carry one X-Request-Id, which the server echoes;
// the next call carries another.
func TestRequestIDAcrossRetries(t *testing.T) {
	l := newLab(t)
	token, err := batterylab.NewAPIToken(l.plat, "tester", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	inner := l.plat.Access.Handler()
	var mu sync.Mutex
	var sent, echoed []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sent = append(sent, r.Header.Get("X-Request-Id"))
		first := len(sent) == 1
		mu.Unlock()
		if first {
			http.Error(w, "unavailable (injected)", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
		mu.Lock()
		echoed = append(echoed, w.Header().Get("X-Request-Id"))
		mu.Unlock()
	}))
	closeOnCleanup(t, ts)
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(remote.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	for range 2 {
		if _, err := client.Nodes(nil); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 3 || sent[0] != sent[1] || sent[1] == sent[2] {
		t.Fatalf("X-Request-Id per attempt %q: want the retry's id twice, then another", sent)
	}
	if !slices.Equal(echoed, sent[1:]) {
		t.Fatalf("server echoed %q to requests carrying %q", echoed, sent[1:])
	}
	for _, id := range sent {
		_, numeric := strconv.ParseInt(id, 10, 64)
		if numeric == nil || strings.HasPrefix(id, "sp-") || !regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`).MatchString(id) {
			t.Errorf("id %q is a bare number, a span id, or outside the echoed charset", id)
		}
	}
}
