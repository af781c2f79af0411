package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/metrics"
	"batterylab/internal/simclock"
)

// serverConfig pins every policy knob the workloads depend on, so a
// changed default in accessserver.Config cannot silently change what the
// benchmark measures. All durations are on the virtual clock.
func serverConfig(executors int) accessserver.Config {
	return accessserver.Config{
		Executors:      executors,
		HeartbeatEvery: 5 * time.Second,
		RetryBackoff:   5 * time.Second,
		MaxRetries:     3,
		PendingTimeout: 24 * time.Hour,
		WALSyncEvery:   time.Second,
		SnapshotEvery:  10 * time.Minute,
	}
}

// workDir is where WAL directories live: under the current directory,
// never the system temp dir, so a run stays inside its checkout.
func workDir() (string, error) {
	root := filepath.Join(".", ".bench_tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "wal-*")
}

// removeWorkDir deletes one WAL directory and, if it was the last, the
// root above it.
func removeWorkDir(dir string) {
	os.RemoveAll(dir)
	os.Remove(filepath.Dir(dir)) // fails while other runs still use it
}

// synthNode is an instant in-process vantage point hosting one device.
type synthNode struct{ name string }

func (n synthNode) Name() string { return n.name }
func (n synthNode) Exec(cmd string, args ...string) (string, error) {
	switch cmd {
	case "ping":
		return "pong", nil
	case "list_devices":
		return deviceName(n.name), nil
	case "status":
		return "status: cpu=5.0%", nil
	}
	return "", nil
}
func (n synthNode) Ping() error { return nil }

// buildStamps are the wall-clock stamps the synthetic backend takes for
// one build (tracer time, ns).
type buildStamps struct {
	runEnter, doneCall int64
}

// synthBackend compiles every spec into a run on the virtual clock:
// 4-8 virtual seconds by build id, events and samples posted on evenly
// spaced ticks. It is also the benchmark's probe inside the scheduler:
// it stamps when a run is entered and when done() is called, and adds up
// the time spent in its own callbacks so that harness cost can be
// subtracted before blaming the scheduler.
type synthBackend struct {
	clock simclock.Clock
	buildShape
	tr *tracer
	t0 time.Time

	compileNS atomic.Int64 // time inside Compile
	harnessNS atomic.Int64 // time inside RunFunc bodies and tick callbacks

	mu       sync.Mutex
	stamps   map[int]*buildStamps
	lastDone map[string]int64 // node -> stamp of the latest done() on it
	startLag []float64        // µs, done() on a node -> next run entered on it
}

func newSynthBackend(clock simclock.Clock, shape buildShape, tr *tracer) *synthBackend {
	return &synthBackend{
		clock: clock, buildShape: shape, tr: tr, t0: time.Now(),
		stamps: map[int]*buildStamps{}, lastDone: map[string]int64{},
	}
}

func (sb *synthBackend) now() int64 {
	if sb.tr != nil {
		return sb.tr.now()
	}
	return int64(time.Since(sb.t0))
}

func (sb *synthBackend) WorkloadNames() []string { return []string{syntheticWorkload} }

func (sb *synthBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	start := time.Now()
	sp := sb.tr.push(0, "harness", "backend.compile")
	cons := accessserver.Constraints{
		Node:     spec.Node,
		Device:   spec.Device,
		Fallback: spec.Constraints.AllowFallback,
	}
	run := sb.run
	sb.tr.pop(sp)
	sb.compileNS.Add(int64(time.Since(start)))
	return cons, run, nil
}

// run is the pipeline body of every synthetic build.
func (sb *synthBackend) run(ctx *accessserver.BuildContext, done func(error)) {
	enter := sb.now()
	id := ctx.Build.ID
	node := ctx.Node.Name()
	sp := sb.tr.push(int64(id), "harness", "backend.start")
	st := &buildStamps{runEnter: enter}
	sb.mu.Lock()
	sb.stamps[id] = st
	if last, ok := sb.lastDone[node]; ok {
		sb.startLag = append(sb.startLag, float64(enter-last)/1e3)
		delete(sb.lastDone, node)
	}
	sb.mu.Unlock()

	feed := ctx.Build.Feed()
	ctx.OnCancel(func() { done(errors.New("canceled by user")) })
	dur := time.Duration(4+id%5) * time.Second
	step := dur / time.Duration(sb.ticks)
	posted := 0
	for k := 1; k <= sb.ticks; k++ {
		k := k
		sb.clock.AfterFunc(step*time.Duration(k), func() {
			tick := sb.now()
			tsp := sb.tr.push(int64(id), "harness", "backend.tick")
			at := sb.clock.Now().UnixNano()
			// Events are spread over the ticks; the first and the last
			// tick always carry one (workload / teardown).
			if ev := sb.events * k / sb.ticks; ev > sb.events*(k-1)/sb.ticks {
				phase := "workload"
				if k == sb.ticks {
					phase = "teardown"
				}
				for e := sb.events * (k - 1) / sb.ticks; e < ev; e++ {
					feed.PostEvent(api.BuildEvent{Build: id, Node: node, Phase: phase, AtNS: at})
				}
			}
			upto := sb.samples * k / sb.ticks
			for ; posted < upto; posted++ {
				feed.PostSample(api.SamplePoint{AtNS: at + int64(posted), CurrentMA: float64(100 + (id+posted)%50)})
			}
			last := k == sb.ticks
			sb.tr.pop(tsp)
			end := sb.now()
			sb.harnessNS.Add(end - tick)
			if !last {
				return
			}
			sb.mu.Lock()
			st.doneCall = end
			sb.lastDone[node] = end
			sb.mu.Unlock()
			dsp := sb.tr.push(int64(id), "sched", "settle")
			done(nil)
			sb.tr.pop(dsp)
		})
	}
	sb.tr.pop(sp)
	sb.harnessNS.Add(sb.now() - enter)
}

// lab is one assembled server under test: virtual clock, access server
// with the synthetic backend and nodes, a real WAL, an admin user and a
// loopback HTTP listener with the timing handler in front.
type lab struct {
	clk     *simclock.Virtual
	srv     *accessserver.Server
	backend *synthBackend
	st      *store.Store
	dir     string
	ts      *httptest.Server
	timing  *timingHandler
	client  *client
	direct  latencies // µs per route class of reads served without the listener
	token   string
	// How long store.Open and AttachStore took when this lab was built.
	openDur, attachDur time.Duration
	// WAL records store.Open read back (AttachStore consumes them).
	replayed int
}

// buildShape is what one synthetic build does: its events and samples,
// posted on that many timer callbacks.
type buildShape struct{ ticks, samples, events int }

// labConfig says what to assemble.
type labConfig struct {
	nodes  []string
	shape  buildShape
	dir    string // existing WAL dir to recover from ("" = fresh)
	tr     *tracer
	parent int64 // span the store.open / persist.attach spans belong to
}

// newLab assembles a server in the documented order: backend, nodes,
// store, then users. With cfg.dir set it recovers from that directory
// and returns what AttachStore reconstructed.
func newLab(cfg labConfig) (*lab, accessserver.RecoveryStats, error) {
	var stats accessserver.RecoveryStats
	l := &lab{clk: simclock.NewVirtual(), dir: cfg.dir}
	l.srv = accessserver.New(l.clk, serverConfig(len(cfg.nodes)))
	l.backend = newSynthBackend(l.clk, cfg.shape, cfg.tr)
	l.srv.SetSpecBackend(l.backend)
	l.srv.ExpectDurable()
	for _, n := range cfg.nodes {
		if err := l.srv.RegisterNode(synthNode{name: n}); err != nil {
			return nil, stats, err
		}
	}
	recovering := cfg.dir != ""
	if !recovering {
		dir, err := workDir()
		if err != nil {
			return nil, stats, err
		}
		l.dir = dir
	}
	sp := cfg.tr.begin(cfg.parent, cfg.parent, "store", "open")
	start := time.Now()
	st, err := store.Open(l.dir)
	l.openDur = time.Since(start)
	cfg.tr.end(sp)
	if err != nil {
		return nil, stats, err
	}
	l.st = st
	_, recs := st.Load()
	l.replayed = len(recs)
	sp = cfg.tr.begin(cfg.parent, cfg.parent, "persist", "attach")
	start = time.Now()
	stats, err = l.srv.AttachStore(st)
	l.attachDur = time.Since(start)
	cfg.tr.end(sp)
	if err != nil {
		st.Close()
		return nil, stats, err
	}
	var admin *accessserver.User
	if recovering {
		admin, err = l.srv.Users.Lookup("bench")
	} else {
		admin, err = l.srv.Users.Add("bench", accessserver.RoleAdmin)
	}
	if err != nil {
		st.Close()
		return nil, stats, err
	}
	l.token = admin.Token
	l.timing = newTimingHandler(l.srv.Handler(), cfg.tr)
	l.ts = httptest.NewServer(l.timing)
	l.client = newClient(l.ts.URL, l.token, cfg.tr)
	return l, stats, nil
}

// serveWith answers one GET straight from the server's handler stack —
// authentication, routing, the handler, encoding, and the timing handler
// around them — with no listener or connection in between, and hands the
// response body to decode.
func (l *lab) serveWith(path string, decode func(body []byte) error) error {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+l.token)
	rec := httptest.NewRecorder()
	// The request, recorder and decoding are the benchmark's own work.
	sp := l.timing.tr.begin(0, 0, "harness", "serve")
	if sp != 0 {
		req.Header.Set(spanHeader, "sp-"+strconv.FormatInt(sp, 10))
	}
	start := time.Now()
	l.timing.ServeHTTP(rec, req)
	l.direct.add(classify(http.MethodGet, req.URL.Path), time.Since(start))
	var err error
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	} else if decode != nil {
		err = decode(rec.Body.Bytes())
	}
	l.timing.tr.end(sp)
	ref.tick()
	return err
}

// serve is serveWith for a JSON answer decoded into out.
func (l *lab) serve(path string, out any) error {
	if out == nil {
		return l.serveWith(path, nil)
	}
	return l.serveWith(path, func(body []byte) error { return json.Unmarshal(body, out) })
}

// close stops the listener and closes the store; the WAL directory is
// left for the caller (restart reuses it).
func (l *lab) close() error {
	l.client.close()
	l.ts.Close()
	return l.st.Close()
}

// feedVals records the feed plane's exported counters.
func feedVals(res *passResult, snap metrics.Snapshot) {
	for _, k := range []string{"samples_posted", "samples_dropped", "events_posted", "events_dropped"} {
		res.vals["feedhub."+k] = metricOf(snap, "blab_feed_"+k+"_total")
	}
}

// metricOf reads one value from the server's exported metrics.
func metricOf(snap metrics.Snapshot, name string, labels ...string) float64 {
	m, _ := snap.Get(name, metrics.L(labels...)...)
	return m.Value
}

// driveIdle steps the virtual clock deadline by deadline until the
// server has nothing queued or running, timing the wall spent inside
// RunUntil. It stops early when stop returns true.
func driveIdle(l *lab, tr *tracer, stop func() bool) (inRunUntil time.Duration, err error) {
	for step := int64(0); l.srv.Running()+l.srv.QueueLength() > 0; step++ {
		if stop != nil && stop() {
			return inRunUntil, nil
		}
		next, ok := l.clk.NextDeadline()
		if !ok {
			return inRunUntil, fmt.Errorf("stalled with %d builds queued and no timers", l.srv.QueueLength())
		}
		sp := tr.push(step, "sched", "drive")
		start := time.Now()
		l.clk.RunUntil(next)
		inRunUntil += time.Since(start)
		tr.pop(sp)
		ref.tick()
	}
	return inRunUntil, nil
}

// Route classes of the timing handler (and of the client's timers).
const (
	routeSubmit    = "submit"
	routeCancel    = "cancel"
	routeStatus    = "status"
	routeNodes     = "nodes"
	routeCampaign  = "campaign"
	routeMetrics   = "metrics"
	routeEvents    = "events"
	routeSamples   = "samples"
	routeAnalytics = "analytics"
	routeArtifact  = "artifact"
	routeTrace     = "trace" // the binary power trace artifact
	routeReady     = "ready"
	routeOther     = "other"
)

// classify maps a request to its route class — the benchmark's stand-in
// for the mux pattern, which is not visible from outside the server.
func classify(method, path string) string {
	p := strings.TrimPrefix(path, "/api/v1/")
	switch {
	case path == "/readyz":
		return routeReady
	case method == http.MethodPost && (p == "campaigns" || p == "experiments"):
		return routeSubmit
	case method == http.MethodPost && strings.HasSuffix(p, "/cancel"):
		return routeCancel
	case p == "nodes":
		return routeNodes
	case p == "metrics":
		return routeMetrics
	case strings.HasPrefix(p, "campaigns/"):
		return routeCampaign
	case strings.HasSuffix(p, "/events"):
		return routeEvents
	case strings.HasSuffix(p, "/samples"):
		return routeSamples
	case strings.HasSuffix(p, "/analytics"):
		return routeAnalytics
	case strings.HasSuffix(p, "/artifacts/current.trace"):
		return routeTrace
	case strings.Contains(p, "/artifacts/"):
		return routeArtifact
	case strings.HasPrefix(p, "builds/"):
		return routeStatus
	}
	return routeOther
}

// latencies collects per-class durations in microseconds.
type latencies struct {
	mu sync.Mutex
	us map[string][]float64
}

func (l *latencies) add(class string, d time.Duration) {
	l.mu.Lock()
	if l.us == nil {
		l.us = map[string][]float64{}
	}
	l.us[class] = append(l.us[class], float64(d)/1e3)
	l.mu.Unlock()
}

func (l *latencies) get(class string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.us[class]...)
}

// byteCounts adds up response body bytes per route class.
type byteCounts struct {
	mu sync.Mutex
	n  map[string]int64
}

func (b *byteCounts) add(class string, n int64) {
	b.mu.Lock()
	if b.n == nil {
		b.n = map[string]int64{}
	}
	b.n[class] += n
	b.mu.Unlock()
}

func (b *byteCounts) get(class string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n[class]
}

// spanHeader carries the client span id to the timing handler, so the
// handler's span names its cause. The server sanitises and echoes
// X-Request-Id, which is why this header can ride on it.
const spanHeader = "X-Request-Id"

// timingHandler wraps the server's handler from the outside: wall time
// per route class, non-2xx responses, body bytes per class, and (traced)
// one httpv1 span per request.
type timingHandler struct {
	next http.Handler
	tr   *tracer
	lat  latencies
	// liveStreams marks a server whose event and sample streams are
	// followed live: their handlers spend the build's whole run parked
	// on the feed, so their spans are waiting, not busy time.
	liveStreams bool

	non2xx atomic.Int64
	bytes  byteCounts
}

func newTimingHandler(next http.Handler, tr *tracer) *timingHandler {
	return &timingHandler{next: next, tr: tr}
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	class := classify(r.Method, r.URL.Path)
	var sp int64
	if h.tr != nil {
		parent, _ := strconv.ParseInt(strings.TrimPrefix(r.Header.Get(spanHeader), "sp-"), 10, 64)
		layer := "httpv1"
		if h.liveStreams && (class == routeEvents || class == routeSamples) {
			layer = layerWait
		}
		if class == routeSubmit {
			// Compile, and the runs a submit dispatches, happen on this
			// goroutine inside the handler: their spans nest under it.
			sp = h.tr.pushUnder(parent, parent, layer, "handler "+class)
		} else {
			sp = h.tr.begin(parent, parent, layer, "handler "+class)
		}
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	h.lat.add(class, time.Since(start))
	h.tr.pop(sp) // ends the span; a no-op on the stack for spans begun off it
	if cw.status < 200 || cw.status > 299 {
		h.non2xx.Add(1)
	}
	h.bytes.add(class, cw.n)
}

// client is the benchmark's HTTP load generator: one keep-alive
// connection pool, bearer auth, client-side timers per route class.
type client struct {
	base  string
	token string
	hc    *http.Client
	tr    *tracer
	lat   latencies

	requests atomic.Int64
	non2xx   atomic.Int64
}

func newClient(base, token string, tr *tracer) *client {
	return &client{
		base: base, token: token, tr: tr,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// open issues one request and returns the response with its body still
// to be read; the caller closes it through finish.
func (c *client) open(method, path string, body []byte, parent int64) (*http.Response, int64, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, time.Time{}, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	class := classify(method, path)
	sp := c.tr.begin(parent, parent, "client", class)
	if sp != 0 {
		req.Header.Set(spanHeader, "sp-"+strconv.FormatInt(sp, 10))
	}
	start := time.Now()
	c.requests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return nil, 0, start, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.non2xx.Add(1)
	}
	return resp, sp, start, nil
}

// do issues a request, reads the whole body and records the client wall
// under the request's route class.
func (c *client) do(method, path string, body []byte, parent int64) ([]byte, int, error) {
	resp, sp, start, err := c.open(method, path, body, parent)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.lat.add(classify(method, path), time.Since(start))
	c.tr.end(sp)
	ref.tick()
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return data, resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.StatusCode, nil
}

func (c *client) getJSON(path string, out any) error {
	data, _, err := c.do(http.MethodGet, path, nil, 0)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// passResult is what one pass of a workload hands back.
type passResult struct {
	wall time.Duration // the whole timed region, reference slices taken out
	// factor turns this pass's walls into reference-machine time (see
	// refclock.go): the host's speed over the timed region. phase holds
	// the same for the phase an end-to-end figure was measured in, where
	// that is narrower than the whole region.
	factor float64
	phase  map[string]float64
	// vals are per-pass figures; the report takes their median over the
	// passes of a run. lats are pooled over the passes and reported as
	// percentiles.
	vals map[string]float64
	lats map[string][]float64
	// det are outcome counts that must repeat exactly for the same inputs.
	det map[string]int64

	attempted, failed int64
	violations        []string

	// The timed window in tracer time (traced passes only).
	spanLo, spanHi int64
}

func newPassResult() *passResult {
	return &passResult{factor: 1, phase: map[string]float64{}, vals: map[string]float64{}, lats: map[string][]float64{}, det: map[string]int64{}}
}

// toReference rewrites the pass's end-to-end figures into
// reference-machine time (see refclock.go) and keeps the figures as
// measured under a "raw." prefix. Per-layer figures stay as measured.
func (p *passResult) toReference() {
	factor := func(k string) float64 {
		if f, ok := p.phase[k]; ok {
			return f
		}
		return p.factor
	}
	for _, k := range []string{"builds_per_s", "reads_per_s"} {
		p.vals["raw."+k] = p.vals[k]
		p.vals[k] /= factor(k)
	}
	raw := p.lats["op_ms"]
	p.lats["raw.op_ms"] = raw
	p.lats["op_ms"] = scale(append([]float64(nil), raw...), factor("op_ms"))
}

// op counts one attempted operation, failed if err is set.
func (p *passResult) op(err error) {
	p.attempted++
	if err != nil {
		p.failed++
	}
}

// ops counts attempted operations, failed of them failed.
func (p *passResult) ops(attempted, failed int64) {
	p.attempted += attempted
	p.failed += failed
}

// check records a violated output check as one failed operation.
func (p *passResult) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

func (p *passResult) detString() string {
	keys := make([]string, 0, len(p.det))
	for k := range p.det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, p.det[k])
	}
	return strings.TrimSpace(b.String())
}

// stateRank orders wire states along the build lifecycle for the
// monotonic-read check (-1: unknown).
func stateRank(state string) int {
	switch state {
	case "queued":
		return 0
	case "running":
		return 1
	case "success", "failure", "aborted":
		return 2
	case api.StateExpired:
		return 3
	}
	return -1
}

func terminalState(state string) bool { return stateRank(state) == 2 }
