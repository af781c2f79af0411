package remote_test

// One client: an in-process campaign and the same campaign over HTTP
// report every run alike, because one handle follows both, through the
// in-process port and through the HTTP one.

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
	"batterylab/internal/simclock"
	"batterylab/internal/trace"
)

// parityLab is one platform of three vantage points with the study
// browsers and no video player, so the video workload fails at launch.
func parityLab(t *testing.T) (*simclock.Virtual, *batterylab.Platform, api.CampaignSpec) {
	t.Helper()
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		t.Fatal(err)
	}
	var spec api.CampaignSpec
	for i, workload := range []api.WorkloadSpec{
		{Name: "idle", Params: api.Params{"duration_ms": 20000}},  // succeeds
		{Name: "video", Params: api.Params{"duration_ms": 10000}}, // fails: no player
		{Name: "idle", Params: api.Params{"duration_ms": 20000}},  // canceled while queued
	} {
		name := []string{"node1", "node2", "node3"}[i]
		_, dev, _, err := batterylab.NewVantagePoint(clock, plat, batterylab.VantagePointConfig{Name: name, Seed: 300 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		spec.Experiments = append(spec.Experiments, api.ExperimentSpec{
			Node: name, Device: dev.Serial(),
			Monitor:  api.MonitorSpec{SampleRateHz: 500},
			Workload: workload,
		})
	}
	// One run at a time: the third member waits in the queue behind the
	// first two, so it can be canceled there.
	spec.MaxConcurrent = 1
	return clock, plat, spec
}

// phaseLog records each node's phase events; every member of the
// parity campaign runs on a node of its own.
type phaseLog struct {
	mu     sync.Mutex
	phases map[string][]core.PhaseChange
}

func (l *phaseLog) OnPhase(e core.PhaseChange) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.phases == nil {
		l.phases = make(map[string][]core.PhaseChange)
	}
	l.phases[e.Node] = append(l.phases[e.Node], e)
}

func (l *phaseLog) OnSample(core.Sample) {}

// done returns node's one PhaseDone, failing unless the node saw
// exactly one and saw it last.
func (l *phaseLog) done(t *testing.T, node string) core.PhaseChange {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	phases := l.phases[node]
	n := 0
	for _, c := range phases {
		if c.Phase == core.PhaseDone {
			n++
		}
	}
	if n != 1 || phases[len(phases)-1].Phase != core.PhaseDone {
		t.Fatalf("%s: %d PhaseDone among %d events, want exactly one, last", node, n, len(phases))
	}
	return phases[len(phases)-1]
}

// TestCampaignRunsMatchLocal runs one campaign spec — a success, a
// failure and a member canceled while queued — on twin deployments, in
// process and over HTTP, and requires every run and every terminal
// PhaseDone to agree field by field. The clock is held on both sides
// from submission through the cancel, so the cancel lands at the
// submission instant on both.
func TestCampaignRunsMatchLocal(t *testing.T) {
	ctx := context.Background()

	clock, plat, spec := parityLab(t)
	var local phaseLog
	release := clock.Hold()
	cs, err := plat.StartCampaignSpec(ctx, spec, &local)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := plat.Access.CampaignBuildIDs(cs.ID)
	if err != nil {
		t.Fatal(err)
	}
	admin, err := plat.Access.Users.Add("ops", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.Access.Abort(admin, ids[2]); err != nil {
		t.Fatal(err)
	}
	release()
	want, err := cs.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rclock, rplat, _ := parityLab(t)
	token, err := batterylab.NewAPIToken(rplat, "alice", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rplat.Access.Handler())
	closeOnCleanup(t, ts)
	stop := make(chan struct{})
	defer close(stop)
	go batterylab.DriveBuilds(rclock, rplat, stop)
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	var over phaseLog
	release = rclock.Hold()
	camp, err := client.StartCampaign(ctx, spec, &over)
	if err != nil {
		t.Fatal(err)
	}
	rids, err := rplat.Access.CampaignBuildIDs(camp.ID)
	if err != nil {
		t.Fatal(err)
	}
	radmin, err := rplat.Access.Users.Add("ops", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rplat.Access.Abort(radmin, rids[2]); err != nil {
		t.Fatal(err)
	}
	release()
	got, err := camp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if want[0].Err != nil || want[1].Err == nil || !errors.Is(want[2].Err, core.ErrCanceled) {
		t.Fatalf("local runs ended %v, %v, %v; want a success, a failure and a cancel", want[0].Err, want[1].Err, want[2].Err)
	}
	if !want[2].Started.IsZero() {
		t.Fatalf("the member canceled while queued started at %v", want[2].Started)
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Index != w.Index || g.Build != w.Build || g.Node != w.Node || g.Device != w.Device {
			t.Errorf("run %d: remote is #%d build %d on %s/%s, local #%d build %d on %s/%s",
				i, g.Index, g.Build, g.Node, g.Device, w.Index, w.Build, w.Node, w.Device)
		}
		if !g.Started.Equal(w.Started) || !g.Finished.Equal(w.Finished) {
			t.Errorf("run %d: remote ran %v–%v, local %v–%v", i, g.Started, g.Finished, w.Started, w.Finished)
		}
		if (g.Err == nil) != (w.Err == nil) || g.Err != nil && g.Err.Error() != w.Err.Error() {
			t.Errorf("run %d: remote error %v, local %v", i, g.Err, w.Err)
		}
		for _, sentinel := range []error{core.ErrCanceled, core.ErrNodeLost} {
			if errors.Is(g.Err, sentinel) != errors.Is(w.Err, sentinel) {
				t.Errorf("run %d: errors.Is(%v) is %v remotely, %v locally", i, sentinel, errors.Is(g.Err, sentinel), errors.Is(w.Err, sentinel))
			}
		}
		sameResult(t, i, g.Result, w.Result)

		node := spec.Experiments[i].Node
		if ld, rd := local.done(t, node), over.done(t, node); !rd.At.Equal(ld.At) {
			t.Errorf("run %d: remote PhaseDone at %v, local at %v", i, rd.At, ld.At)
		}
	}
	if d := local.done(t, "node3"); !d.At.Equal(want[2].Finished) || !errors.Is(d.Err, core.ErrCanceled) {
		t.Errorf("queued cancel: PhaseDone at %v with %v, want at %v with the run's error", d.At, d.Err, want[2].Finished)
	}
}

// sameResult requires two results to be bit-identical: every sample of
// every trace, and every figure.
func sameResult(t *testing.T, i int, got, want *core.Result) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Errorf("run %d: remote result %v, local %v", i, got, want)
		}
		return
	}
	if math.Float64bits(got.EnergyMAH) != math.Float64bits(want.EnergyMAH) ||
		got.Duration != want.Duration || got.MirrorUploadBytes != want.MirrorUploadBytes {
		t.Errorf("run %d: remote %v mAh over %v (%d B mirrored), local %v mAh over %v (%d B)",
			i, got.EnergyMAH, got.Duration, got.MirrorUploadBytes, want.EnergyMAH, want.Duration, want.MirrorUploadBytes)
	}
	for _, s := range []struct {
		what      string
		got, want *trace.Series
	}{
		{"current", got.Current, want.Current},
		{"device CPU", got.DeviceCPU, want.DeviceCPU},
		{"controller CPU", got.ControllerCPU, want.ControllerCPU},
	} {
		if s.got.Len() != s.want.Len() {
			t.Errorf("run %d: %s trace has %d samples remotely, %d locally", i, s.what, s.got.Len(), s.want.Len())
			continue
		}
		for k := 0; k < s.want.Len(); k++ {
			g, w := s.got.At(k), s.want.At(k)
			if !g.T.Equal(w.T) || math.Float64bits(g.V) != math.Float64bits(w.V) {
				t.Errorf("run %d: %s[%d] is %v at %v remotely, %v at %v locally", i, s.what, k, g.V, g.T, w.V, w.T)
				break
			}
		}
	}
}

// TestRemoteCampaignCancelOrder cancels a three-member campaign pinned to
// one node while its first member runs. The members go last to first,
// so the queued ones leave the queue before the running one frees the
// node: neither is ever dispatched.
func TestRemoteCampaignCancelOrder(t *testing.T) {
	server := newLab(t)
	client := server.serve(t)
	ctx := context.Background()

	var spec api.CampaignSpec
	for range 3 {
		spec.Experiments = append(spec.Experiments, api.ExperimentSpec{
			Node: server.nodes[0], Device: server.devices[0],
			Monitor:  api.MonitorSpec{SampleRateHz: 500},
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 600000}},
		})
	}
	firstSample := make(chan struct{})
	var once sync.Once
	// The clock is held from the submit until every cancel is
	// acknowledged, and stepped by hand until member 0 streams: member 0
	// cannot end, nor member 1 start, first.
	release := server.clock.Hold()
	defer release()
	camp, err := client.StartCampaign(ctx, spec, core.ObserverFuncs{
		Sample: func(core.Sample) { once.Do(func() { close(firstSample) }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !server.stepUntil(func() bool { return closed(firstSample) }) {
		t.Fatal("member 0 never streamed a sample")
	}
	// Member 0 is demonstrably measuring.
	camp.Cancel()
	release()
	runs, err := camp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if !errors.Is(r.Err, core.ErrCanceled) {
			t.Errorf("run %d: %v, want ErrCanceled", i, r.Err)
		}
		st, err := client.BuildStatus(ctx, r.Build)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.Attempts != 0 {
			t.Errorf("member %d settled %s after %d attempts, want it never dispatched", i, st.State, st.Attempts)
		}
	}
}

// sampleLog records every live sample observers were handed.
type sampleLog struct {
	mu  sync.Mutex
	all []core.Sample
}

func (l *sampleLog) OnPhase(core.PhaseChange) {}

func (l *sampleLog) OnSample(s core.Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all = append(l.all, s)
}

func (l *sampleLog) samples() []core.Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.all
}

// TestSamplesMatchLocal runs one experiment spec on twin deployments, in
// process and over HTTP, and requires the observers' Sample sequences to
// agree field by field, Live included: over either port the handle
// reads the live summary the server's session computed over every
// monitor sample, rather than one re-aggregated from the feed's one
// point per second.
func TestSamplesMatchLocal(t *testing.T) {
	ctx := context.Background()

	_, plat, campaign := parityLab(t)
	spec := campaign.Experiments[0]
	spec.Workload.Params = api.Params{"duration_ms": 10000}
	var local sampleLog
	run, err := batterylab.LocalBackend(plat).StartExperimentSpec(ctx, spec, &local)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	rclock, rplat, _ := parityLab(t)
	token, err := batterylab.NewAPIToken(rplat, "alice", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rplat.Access.Handler())
	closeOnCleanup(t, ts)
	stop := make(chan struct{})
	defer close(stop)
	go batterylab.DriveBuilds(rclock, rplat, stop)
	backend, err := batterylab.RemoteBackend(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	var over sampleLog
	run, err = backend.StartExperimentSpec(ctx, spec, &over)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	want, got := local.samples(), over.samples()
	if len(want) == 0 || want[len(want)-1].Live.N <= len(want) {
		t.Fatalf("local observers saw %d samples, the last summarising %d: want more monitor samples than feed points",
			len(want), want[len(want)-1].Live.N)
	}
	if len(got) != len(want) {
		t.Fatalf("remote observers saw %d samples, local %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Node != w.Node || g.Device != w.Device || !g.At.Equal(w.At) ||
			math.Float64bits(g.CurrentMA) != math.Float64bits(w.CurrentMA) || g.Live != w.Live {
			t.Fatalf("sample %d: remote %+v, local %+v", i, g, w)
		}
	}
}
