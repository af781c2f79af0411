package remote_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batterylab"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
	"batterylab/internal/simclock"
)

// lab is a two-vantage-point platform for round-trip tests. Building
// two identical labs (same seeds) lets the tests compare a remote run
// against a local control run of the same specs.
type lab struct {
	clock   *simclock.Virtual
	plat    *batterylab.Platform
	nodes   []string
	devices []string
}

// stepUntil paces l's clock, which the caller holds so that
// DriveBuilds stops racing it: it steps the clock by hand, 100 ms of
// simulated time a step and a real millisecond between steps, until done
// reports true, and reports whether it did within ten seconds. A driver
// running the clock flat out can finish a 600 s run before a real-time
// goroutine (a stream handler, an observer) gets a core, and on one core
// it always does.
func (l *lab) stepUntil(done func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !done(); {
		if time.Now().After(deadline) {
			return false
		}
		l.clock.Advance(100 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	return true
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func newLab(t *testing.T) *lab {
	t.Helper()
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		t.Fatal(err)
	}
	l := &lab{clock: clock, plat: plat}
	for i := 0; i < 2; i++ {
		name := []string{"node1", "node2"}[i]
		ctl, err := batterylab.NewController(clock, batterylab.ControllerConfig{Name: name, Seed: 100 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := batterylab.NewDevice(clock, batterylab.DeviceConfig{Seed: 500 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.AttachDevice(dev); err != nil {
			t.Fatal(err)
		}
		for _, prof := range batterylab.BrowserProfiles() {
			if err := dev.Install(batterylab.NewBrowser(prof, ctl)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Storage().Push("/sdcard/blab.mp4", batterylab.SampleMP4(1<<20)); err != nil {
			t.Fatal(err)
		}
		if err := dev.Install(batterylab.NewVideoPlayer("/sdcard/blab.mp4")); err != nil {
			t.Fatal(err)
		}
		if _, err := plat.Join(ctl, "198.51.100.7:2222"); err != nil {
			t.Fatal(err)
		}
		l.nodes = append(l.nodes, name)
		l.devices = append(l.devices, dev.Serial())
	}
	return l
}

// closeOnCleanup closes ts when the test ends, cutting its client
// connections first (cleanups run last in, first out). Close waits for
// every request in flight, and a build a failing test leaves running
// keeps its NDJSON streams open: without the cut the test would hang
// until go test's timeout instead of failing.
func closeOnCleanup(t testing.TB, ts *httptest.Server) {
	t.Cleanup(ts.Close)
	t.Cleanup(ts.CloseClientConnections)
}

// serve exposes the lab over HTTP with a build-driving goroutine and
// returns a connected client.
func (l *lab) serve(t *testing.T) *remote.Platform {
	t.Helper()
	token, err := batterylab.NewAPIToken(l.plat, "tester-"+t.Name(), "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.plat.Access.Handler())
	closeOnCleanup(t, ts)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go batterylab.DriveBuilds(l.clock, l.plat, stop)
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// campaignSpec is the two-node workload mix the round-trip tests run:
// a browser sweep on node1, video playback on node2.
func (l *lab) campaignSpec() api.CampaignSpec {
	return api.CampaignSpec{
		Experiments: []api.ExperimentSpec{
			{
				Node: l.nodes[0], Device: l.devices[0],
				Monitor: api.MonitorSpec{SampleRateHz: 1000},
				Workload: api.WorkloadSpec{
					Name:   "browser",
					Params: api.Params{"browser": "Brave", "pages": 2, "scrolls": 4},
				},
			},
			{
				Node: l.nodes[1], Device: l.devices[1],
				Monitor: api.MonitorSpec{SampleRateHz: 500},
				Workload: api.WorkloadSpec{
					Name:   "video",
					Params: api.Params{"duration_ms": 30000},
				},
			},
		},
	}
}

// progressLog collects observer callbacks from concurrent streams.
type progressLog struct {
	mu      sync.Mutex
	phases  map[string][]core.Phase
	samples map[string]int
	liveN   map[string]int
}

func newProgressLog() *progressLog {
	return &progressLog{
		phases:  make(map[string][]core.Phase),
		samples: make(map[string]int),
		liveN:   make(map[string]int),
	}
}

func (p *progressLog) OnPhase(e core.PhaseChange) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.phases[e.Node] = append(p.phases[e.Node], e.Phase)
}

func (p *progressLog) OnSample(s core.Sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[s.Node]++
	if s.Live.N > p.liveN[s.Node] {
		p.liveN[s.Node] = s.Live.N
	}
}

// relTol checks a and b agree within 1e-9 relative tolerance.
func relTol(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// TestRemoteCampaignRoundTrip is the end-to-end acceptance path: a
// CampaignSpec submitted as JSON to an httptest server fans out across
// two nodes; phase events and binary-codec live samples stream back
// through remote.Platform while the builds run concurrently; and the
// reconstructed results match local core runs of the same specs on
// the virtual clock to 1e-9 (in fact bit for bit).
func TestRemoteCampaignRoundTrip(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	spec := server.campaignSpec()
	log := newProgressLog()

	ctx := context.Background()
	camp, err := client.StartCampaign(ctx, spec, log)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := camp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs", len(runs))
	}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("run %d (%s) failed: %v", r.Index, r.Node, r.Err)
		}
		if r.Result == nil || r.Result.Current.Len() == 0 {
			t.Fatalf("run %d has no trace", r.Index)
		}
	}

	for i := range runs {
		// The local control: the same spec run alone, in-process, on an
		// identical lab (one lab per run, so each starts at the instant
		// its campaign member did).
		control := newLab(t)
		x, err := control.plat.StartExperimentSpec(ctx, spec.Experiments[i])
		if err != nil {
			t.Fatal(err)
		}
		lr, err := x.Wait(ctx)
		if err != nil {
			t.Fatalf("control run %d failed: %v", i, err)
		}
		rr := runs[i].Result
		if rr.Current.Len() != lr.Current.Len() {
			t.Errorf("run %d: %d samples remotely, %d locally", i, rr.Current.Len(), lr.Current.Len())
		}
		rMean, lMean := rr.Current.Summary().Mean, lr.Current.Summary().Mean
		if !relTol(rMean, lMean) {
			t.Errorf("run %d: mean %v remotely vs %v locally", i, rMean, lMean)
		}
		if !relTol(rr.EnergyMAH, lr.EnergyMAH) {
			t.Errorf("run %d: energy %v remotely vs %v locally", i, rr.EnergyMAH, lr.EnergyMAH)
		}
		if rr.Duration != lr.Duration {
			t.Errorf("run %d: duration %v remotely vs %v locally", i, rr.Duration, lr.Duration)
		}
	}

	// Both nodes streamed phases (through the terminal event, delivered
	// last) and live samples over the binary codec.
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, node := range server.nodes {
		phases := log.phases[node]
		if len(phases) == 0 {
			t.Fatalf("no phase events from %s", node)
		}
		if got := phases[len(phases)-1]; got != core.PhaseDone {
			t.Errorf("%s: last phase %v, want done", node, got)
		}
		seen := make(map[core.Phase]bool)
		for _, ph := range phases {
			seen[ph] = true
		}
		for _, want := range []core.Phase{core.PhaseTransportArmed, core.PhaseMonitorArmed, core.PhaseWorkload, core.PhaseSettle} {
			if !seen[want] {
				t.Errorf("%s: phase %v never streamed", node, want)
			}
		}
		if log.samples[node] == 0 {
			t.Errorf("no live samples from %s", node)
		}
		if log.liveN[node] == 0 {
			t.Errorf("%s: client-side live summary never advanced", node)
		}
	}
}

// TestRemoteSingleExperiment runs one spec through the session-shaped
// client API and cross-checks the server-side summary digest.
func TestRemoteSingleExperiment(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	spec := server.campaignSpec().Experiments[0]

	ctx := context.Background()
	sess, err := client.StartExperiment(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Phase() != core.PhaseDone {
		t.Fatalf("phase after Wait = %v", sess.Phase())
	}

	st, err := client.BuildStatus(ctx, sess.Build())
	if err != nil {
		t.Fatal(err)
	}
	if st.Summary == nil {
		t.Fatal("no summary on the finished build")
	}
	if !relTol(st.Summary.MeanMA, res.Current.Summary().Mean) {
		t.Errorf("summary mean %v vs reconstructed %v", st.Summary.MeanMA, res.Current.Summary().Mean)
	}
	if !relTol(st.Summary.EnergyMAH, res.EnergyMAH) {
		t.Errorf("summary energy %v vs reconstructed %v", st.Summary.EnergyMAH, res.EnergyMAH)
	}
	if st.Summary.DroppedLiveSamples != 0 {
		t.Errorf("capture dropped %d live samples", st.Summary.DroppedLiveSamples)
	}
	if int64(res.Current.Len()) != st.Summary.Samples {
		t.Errorf("trace %d samples vs summary %d", res.Current.Len(), st.Summary.Samples)
	}
	// The build's timeline: submitted, dispatched, then finished once the
	// run's simulated time had passed.
	if st.QueuedAtNS == 0 || st.StartedAtNS < st.QueuedAtNS ||
		time.Duration(st.FinishedAtNS-st.StartedAtNS) < res.Current.Duration() {
		t.Errorf("timeline queued %d, started %d, finished %d: want non-zero, in order and spanning the %v trace",
			st.QueuedAtNS, st.StartedAtNS, st.FinishedAtNS, res.Current.Duration())
	}
	// The monitor's trace and the CPU traces all made the trip.
	if res.DeviceCPU.Len() == 0 || res.ControllerCPU.Len() == 0 {
		t.Error("CPU traces missing from the reconstructed result")
	}
}

// TestLiveStreamsCarryEveryPoint: a build whose first live points come
// before the monitor's first sample (a 1 Hz monitor under 100 ms live
// ticks) serves every point on both sample routes, and the remote
// observer sees each one: NDJSON lines, binary frame points and observed
// samples agree in number. A point's summary before any sample has no
// quantiles to report, and must not cost a stream its lines.
func TestLiveStreamsCarryEveryPoint(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	spec := api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0],
		Monitor:  api.MonitorSpec{SampleRateHz: 1, CPUSamplePeriodMS: 100},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 5000}},
	}
	ctx := context.Background()
	var observed atomic.Int64
	sess, err := client.StartExperiment(ctx, spec, core.ObserverFuncs{Sample: func(core.Sample) { observed.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	lines := len(ndjsonSamples(t, client, sess.Build()))
	frames := 0
	err = client.Follow(ctx, sess.Build(), &remote.Stream{
		Route: "samples",
		Consume: func(body io.Reader) (int, error) {
			br := bufio.NewReader(body)
			for n := 0; ; {
				pts, err := api.ReadSampleFrame(br)
				if err == io.EOF {
					return n, nil
				}
				if err != nil {
					return n, err
				}
				n += len(pts)
				frames += len(pts)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 || lines != frames || int(observed.Load()) != frames {
		t.Fatalf("%d NDJSON lines, %d binary points, %d observed samples: want one count, above 0", lines, frames, observed.Load())
	}
}

// TestRemoteAnalytics runs one experiment and queries the server-side
// analytics engine: the rollup must agree with the reconstructed
// trace's own summary (energy bit-identical — both are the same
// trapezoid in the same order), and windowed buckets must partition
// the sample count.
func TestRemoteAnalytics(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	spec := server.campaignSpec().Experiments[0]

	ctx := context.Background()
	sess, err := client.StartExperiment(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	an, err := client.Analytics(ctx, sess.Build(), api.AnalyticsQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if an.BuildID != sess.Build() || an.Artifact != "current.trace" {
		t.Fatalf("echo fields: %+v", an)
	}
	if an.Total.Samples != int64(res.Current.Len()) {
		t.Fatalf("rollup %d samples, trace has %d", an.Total.Samples, res.Current.Len())
	}
	if an.Total.EnergyMAH == nil || *an.Total.EnergyMAH != res.EnergyMAH {
		t.Fatalf("rollup energy %v, want bit-identical %v", an.Total.EnergyMAH, res.EnergyMAH)
	}
	if !relTol(*an.Total.MeanMA, res.Current.Summary().Mean) {
		t.Errorf("rollup mean %v vs trace summary %v", *an.Total.MeanMA, res.Current.Summary().Mean)
	}

	windowed, err := client.Analytics(ctx, sess.Build(), api.AnalyticsQuery{
		WindowNS: int64(2 * time.Second), Fields: []string{"mean", "energy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed.Buckets) == 0 {
		t.Fatal("no buckets from a windowed query")
	}
	var n int64
	for _, b := range windowed.Buckets {
		n += b.Samples
		if b.Samples > 0 && (b.MeanMA == nil || b.EnergyMAH == nil) {
			t.Fatalf("bucket missing requested fields: %+v", b)
		}
		if b.MinMA != nil || b.P50MA != nil {
			t.Fatalf("bucket carries unrequested fields: %+v", b)
		}
	}
	if n != an.Total.Samples {
		t.Fatalf("buckets sum to %d samples, rollup says %d", n, an.Total.Samples)
	}

	// A bad query surfaces as the typed 400 envelope.
	if _, err := client.Analytics(ctx, sess.Build(), api.AnalyticsQuery{Fields: []string{"bogus"}}); err == nil {
		t.Fatal("unknown field accepted")
	} else {
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.HTTPStatus() != 400 {
			t.Fatalf("unknown field error = %v, want 400 envelope", err)
		}
	}
}

// TestRemoteCancel cancels a session before the clock moves (no build
// driver): the queued settle timer is aborted server-side and the
// client maps the failure onto core.ErrCanceled.
func TestRemoteCancel(t *testing.T) {
	server := newLab(t)
	token, err := batterylab.NewAPIToken(server.plat, "canceler", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.plat.Access.Handler())
	closeOnCleanup(t, ts)
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	sess, err := client.StartExperiment(ctx, api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0],
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 600000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Cancel()
	if _, err := sess.Wait(ctx); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Wait after Cancel = %v, want ErrCanceled", err)
	}

	// The build has settled: the server answers a second cancel with a
	// conflict, which Abort takes as done. An id the server never issued
	// is an error, not a build that settled.
	if err := client.Abort(ctx, sess.Build()); err != nil {
		t.Fatalf("Abort of a settled build = %v, want nil", err)
	}
	var apiErr *api.Error
	if err := client.Abort(ctx, sess.Build()+1000); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("Abort of a never-issued build = %v, want not_found", err)
	}
}

// failFirstCancel answers 503 to the first cancel POST it sees and
// passes every other request through.
type failFirstCancel struct {
	inner  http.Handler
	failed atomic.Bool
}

func (p *failFirstCancel) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/cancel") && p.failed.CompareAndSwap(false, true) {
		http.Error(w, "unavailable (injected)", http.StatusServiceUnavailable)
		return
	}
	p.inner.ServeHTTP(w, r)
}

// TestRemoteCancelAfterLostCancel: a cancel lost to a transient failure
// does not latch. With one attempt per request, the first Cancel's POST
// meets a 503 and is lost; the second must still reach the server, so
// the build settles aborted instead of holding its device.
func TestRemoteCancelAfterLostCancel(t *testing.T) {
	server := newLab(t)
	token, err := batterylab.NewAPIToken(server.plat, "canceler", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&failFirstCancel{inner: server.plat.Access.Handler()})
	closeOnCleanup(t, ts)
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(remote.RetryPolicy{Attempts: 1})

	ctx := context.Background()
	sess, err := client.StartExperiment(ctx, api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0],
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 600000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Cancel() // lost to the 503
	sess.Cancel()
	st, err := client.BuildStatus(ctx, sess.Build())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "aborted" {
		t.Fatalf("after a lost Cancel and a second one the build is %s, want aborted", st.State)
	}
	if _, err := sess.Wait(ctx); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Wait after Cancel = %v, want ErrCanceled", err)
	}
}

// TestRemoteCancelMidRun aborts a build that is already measuring: the
// session must finish as canceled — core.ErrCanceled from Wait, the
// structured Canceled flag on the wire status, and the "aborted" (not
// "failure") state through accessserver.finish.
func TestRemoteCancelMidRun(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	ctx := context.Background()

	firstSample := make(chan struct{})
	var once sync.Once
	// The clock is held from the submit until the cancel is acknowledged,
	// and stepped by hand until the run streams: it cannot end first.
	release := server.clock.Hold()
	defer release()
	sess, err := client.StartExperiment(ctx, api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0],
		Monitor:  api.MonitorSpec{SampleRateHz: 500},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 600000}},
	}, core.ObserverFuncs{
		Sample: func(core.Sample) { once.Do(func() { close(firstSample) }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !server.stepUntil(func() bool { return closed(firstSample) }) {
		t.Fatal("the run never streamed a sample")
	}
	// The run is demonstrably mid-measurement.
	sess.Cancel()
	release()
	if _, err := sess.Wait(ctx); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Wait after mid-run Cancel = %v, want ErrCanceled", err)
	}

	st, err := client.BuildStatus(ctx, sess.Build())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "aborted" {
		t.Fatalf("wire state = %q, want aborted (not failure)", st.State)
	}
	if !st.Canceled {
		t.Fatal("canceled flag lost on the wire status")
	}
	if st.NodeLost {
		t.Fatal("node_lost flag set on a user cancellation")
	}
}

// TestRemoteSubmitErrors pins the typed error envelope on the client
// side: wrong token, unknown node, unknown workload, bad params.
func TestRemoteSubmitErrors(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	ctx := context.Background()

	wantCode := func(t *testing.T, err error, code api.ErrorCode) {
		t.Helper()
		var apiErr *api.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("error %v is not *api.Error", err)
		}
		if apiErr.Code != code {
			t.Fatalf("code = %s, want %s", apiErr.Code, code)
		}
	}

	_, err := client.StartExperiment(ctx, api.ExperimentSpec{
		Node: "mars", Device: server.devices[0],
		Workload: api.WorkloadSpec{Name: "idle"},
	})
	wantCode(t, err, api.CodeNotFound)

	_, err = client.StartExperiment(ctx, api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0],
		Workload: api.WorkloadSpec{Name: "defrag"},
	})
	wantCode(t, err, api.CodeNotFound)

	_, err = client.StartExperiment(ctx, api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0],
		Workload: api.WorkloadSpec{Name: "browser", Params: api.Params{"pages": 99}},
	})
	wantCode(t, err, api.CodeBadRequest)

	_, err = client.StartExperiment(ctx, api.ExperimentSpec{
		Node: server.nodes[0], Device: server.devices[0], Transport: api.TransportUSB,
		Workload: api.WorkloadSpec{Name: "idle"},
	})
	wantCode(t, err, api.CodeBadRequest)

	bad, err := remote.Dial(client.BaseURL(), "wrong-token")
	if err != nil {
		t.Fatal(err)
	}
	_, err = bad.Nodes(ctx)
	wantCode(t, err, api.CodeUnauthorized)
}

// TestRemoteDiscovery: node and workload discovery over the wire.
func TestRemoteDiscovery(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	ctx := context.Background()

	nodes, err := client.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "node1" || len(nodes[0].Devices) != 1 {
		t.Fatalf("nodes = %+v", nodes)
	}
	names, err := client.WorkloadNames(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"browser": true, "video": true, "idle": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("workloads %v missing %v", names, want)
	}
}
