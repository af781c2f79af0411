package remote_test

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
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

// serve exposes the lab over HTTP with a build-driving goroutine and
// returns a connected client.
func (l *lab) serve(t *testing.T) *remote.Platform {
	t.Helper()
	token, err := batterylab.NewAPIToken(l.plat, "tester-"+t.Name(), "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.plat.Access.Handler())
	t.Cleanup(ts.Close)
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
// reconstructed results match a local core run of the same specs on
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

	// The local control: identical lab, same specs, driven by core's
	// own campaign scheduler.
	control := newLab(t)
	local, err := control.plat.StartCampaignSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	controlRuns, err := local.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for i := range runs {
		rr, lr := runs[i].Result, controlRuns[i].Result
		if lr == nil {
			t.Fatalf("control run %d failed: %v", i, controlRuns[i].Err)
		}
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
	defer ts.Close()
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
	<-firstSample // the run is demonstrably mid-measurement
	sess.Cancel()
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
