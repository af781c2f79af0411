package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
	"batterylab/internal/automation"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/video"
)

// sleepWorkload builds a workload of n pure waits of step each — enough
// structure to cancel mid-flight without needing installed apps.
func sleepWorkload(n int, step time.Duration) func(automation.Driver) *automation.Script {
	return func(automation.Driver) *automation.Script {
		s := automation.NewScript("sleeper")
		for i := 0; i < n; i++ {
			s.Sleep(step)
		}
		return s
	}
}

// recorder collects observer events, safely across goroutines (real
// clock timers fire concurrently).
type recorder struct {
	mu      sync.Mutex
	phases  []PhaseChange
	samples []Sample
}

func (r *recorder) OnPhase(e PhaseChange) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phases = append(r.phases, e)
}

func (r *recorder) OnSample(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
}

func (r *recorder) phaseSeq() []Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Phase
	for _, e := range r.phases {
		if len(out) == 0 || out[len(out)-1] != e.Phase {
			out = append(out, e.Phase)
		}
	}
	return out
}

// direct is a run on the session runner itself, outside any build:
// what a build's pipeline body starts, for the tests of the runner's
// own setup, cancellation and teardown. Its feed is build 1's on a hub
// of its own.
type direct struct {
	sess *session
	done chan struct{}
	res  *Result
	err  error
}

func startDirect(t *testing.T, p *Platform, spec experimentSpec) *direct {
	t.Helper()
	d := &direct{done: make(chan struct{})}
	sess, err := p.start(spec, 1, feedhub.New(nil).Create(1, 0), func(res *Result, err error) {
		d.res, d.err = res, err
		close(d.done)
	})
	if err != nil {
		t.Fatal(err)
	}
	d.sess = sess
	return d
}

// wait returns the run's outcome, driving a virtual clock until the run
// has finished (on the real clock it finishes on its own).
func (d *direct) wait(t *testing.T, clk simclock.Clock) (*Result, error) {
	t.Helper()
	if v, ok := clk.(*simclock.Virtual); ok {
		if err := drive(context.Background(), v, isClosed(d.done)); err != nil {
			t.Fatal(err)
		}
	}
	<-d.done
	return d.res, d.err
}

// teardowns reports how many times a session tore down, and in which
// order it released the hardware.
func teardowns(s *session) (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.teardowns, strings.Join(s.teardownOrder, ",")
}

// run measures one wire spec through the platform's own access server.
func run(p *Platform, ws api.ExperimentSpec, obs ...Observer) (*Result, error) {
	x, err := p.StartExperimentSpec(context.Background(), ws, obs...)
	if err != nil {
		return nil, err
	}
	return x.Wait(context.Background())
}

// idleSpec is one wire run of the registry's idle workload on the rig.
func idleSpec(r *rig, d time.Duration) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Monitor:  api.MonitorSpec{SampleRateHz: 200},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": float64(d.Milliseconds())}},
	}
}

// assertReleased checks the vantage point is free for the next
// experimenter: no tunnel, no mirroring, no monitor held.
func assertReleased(t *testing.T, ctl *controller.Controller, serial string) {
	t.Helper()
	if ctl.VPN().Active() != nil {
		t.Error("VPN left connected")
	}
	if sess, err := ctl.MirrorSession(serial); err == nil && sess.Active() {
		t.Error("mirroring left active")
	}
	if ctl.Measuring() != "" {
		t.Error("monitor still held")
	}
}

func TestCancelMidWorkloadVirtual(t *testing.T) {
	r := newRig(t)
	d := startDirect(t, r.plat, experimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 200,
		Mirroring: true, VPNLocation: "Bunkyo",
		Workload: sleepWorkload(60, time.Second),
	})
	if got := d.sess.scripted; got != 61*time.Second { // 60×1 s + 1 s default padding
		t.Fatalf("scripted = %v, want 61s", got)
	}
	// Cancel from a clock callback halfway through the workload — the
	// deterministic way to cancel under the virtual clock.
	r.clk.AfterFunc(30*time.Second, d.sess.Cancel)
	res, err := d.wait(t, r.clk)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertReleased(t, r.ctl, r.serial)
	// Teardown ran once, in reverse setup order: monitor, mirror, VPN.
	if n, order := teardowns(d.sess); n != 1 || order != "monitor,mirror,vpn" {
		t.Fatalf("teardown ran %d times in order %s, want once in order monitor,mirror,vpn", n, order)
	}
	// Cancel is idempotent after completion.
	d.sess.Cancel()
	d.sess.Cancel()
	if n, _ := teardowns(d.sess); n != 1 {
		t.Fatalf("teardown ran %d times, want exactly 1", n)
	}
	// The device is free for the next experimenter.
	if _, err := run(r.plat, idleSpec(r, 2*time.Second)); err != nil {
		t.Fatalf("follow-up run after cancel: %v", err)
	}
}

func TestCancelMidWorkloadRealClock(t *testing.T) {
	clk := simclock.Real()
	plat, ctl, dev := newRealRig(t, clk)
	serial := dev.Serial()
	d := startDirect(t, plat, experimentSpec{
		Node: "node1", Device: serial, SampleRate: 100,
		Mirroring: true, VPNLocation: "Bunkyo",
		Padding:         50 * time.Millisecond,
		CPUSamplePeriod: 20 * time.Millisecond,
		Workload:        sleepWorkload(40, 50*time.Millisecond),
	})
	go func() {
		time.Sleep(150 * time.Millisecond)
		d.sess.Cancel()
	}()
	res, err := d.wait(t, clk)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertReleased(t, ctl, serial)
	if n, _ := teardowns(d.sess); n != 1 {
		t.Errorf("teardown ran %d times, want exactly 1", n)
	}
}

func TestContextCancelTearsDown(t *testing.T) {
	r := newRig(t)
	var sess *session
	r.plat.Access.SetSpecBackend(tapBackend{
		specBackend: specBackend{r.plat},
		started:     func(s *session) { sess = s },
	})
	ctx, cancel := context.WithCancel(context.Background())
	spec := idleSpec(r, 30*time.Second)
	spec.Mirroring = true
	spec.VPNLocation = "Bunkyo"
	x, err := r.plat.StartExperimentSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel ctx mid-workload, from a clock callback: Wait sees it
	// between instants and aborts the build, whose cancel hook tears
	// the session down.
	r.clk.AfterFunc(10*time.Second, cancel)
	res, err := x.Wait(ctx)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertReleased(t, r.ctl, r.serial)
	if sess == nil {
		t.Fatal("the run never started")
	}
	if n, order := teardowns(sess); n != 1 || order != "monitor,mirror,vpn" {
		t.Errorf("teardown ran %d times in order %q, want once as monitor,mirror,vpn", n, order)
	}
	if x.Phase() != PhaseDone {
		t.Fatalf("phase after Wait = %v, want done", x.Phase())
	}
	// A pre-canceled context refuses to start at all.
	if _, err := r.plat.StartExperimentSpec(ctx, idleSpec(r, time.Second)); err == nil {
		t.Fatal("StartExperimentSpec accepted a canceled context")
	}
}

func TestPhaseObserverSequence(t *testing.T) {
	r := newRig(t)
	r.dev.Storage().Push("/sdcard/v.mp4", video.SampleMP4(1<<20))
	r.dev.Install(video.NewPlayer("/sdcard/v.mp4"))
	rec := &recorder{}
	res, err := run(r.plat, api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Mirroring: true, VPNLocation: "Santa Clara",
		Monitor:  api.MonitorSpec{SampleRateHz: 200},
		Workload: api.WorkloadSpec{Name: "video", Params: api.Params{"duration_ms": 20000}},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyMAH <= 0 {
		t.Fatal("no energy measured")
	}
	want := []Phase{PhaseVPNUp, PhaseTransportArmed, PhaseMirrorOn,
		PhaseMonitorArmed, PhaseWorkload, PhaseSettle, PhaseDone}
	got := rec.phaseSeq()
	if len(got) != len(want) {
		t.Fatalf("phase sequence = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase sequence = %v, want %v", got, want)
		}
	}
	// Per-step events carry the step name.
	stepSeen := false
	rec.mu.Lock()
	for _, e := range rec.phases {
		if e.Phase == PhaseWorkload && e.Step == "launch" {
			stepSeen = true
		}
		if e.Phase == PhaseDone && e.Err != nil {
			t.Errorf("PhaseDone carried err %v", e.Err)
		}
	}
	rec.mu.Unlock()
	if !stepSeen {
		t.Fatal("no workload step event observed")
	}
	// Live current samples flowed during the run.
	rec.mu.Lock()
	n := len(rec.samples)
	positive := 0
	for _, s := range rec.samples {
		if s.CurrentMA > 0 {
			positive++
		}
	}
	rec.mu.Unlock()
	if n < 10 || positive == 0 {
		t.Fatalf("samples = %d (positive %d), want a live stream", n, positive)
	}
}

// TestBlockedObserverDoesNotStallCapture pins the delivery contract: an
// OnSample callback that blocks must not stall the Monsoon capture loop,
// the CPU monitors or the run itself — observers run on the handle's
// follower goroutine, which reads the build's feed. The helper goroutine
// only releases the blocked observer once the run's build has settled;
// with delivery on the capture path the clock driver would be stuck
// inside the callback and the build could never settle, so the watchdog
// would fire.
func TestBlockedObserverDoesNotStallCapture(t *testing.T) {
	r := newRig(t)
	release := make(chan struct{})
	var blockedOnce sync.Once
	blocked := make(chan struct{})
	rec := &recorder{}
	blocker := ObserverFuncs{Sample: func(Sample) {
		blockedOnce.Do(func() {
			close(blocked)
			<-release
		})
	}}
	spec := idleSpec(r, 10*time.Second)
	spec.Monitor = api.MonitorSpec{SampleRateHz: 1000, CPUSamplePeriodMS: 100}
	x, err := r.plat.StartExperimentSpec(context.Background(), spec, rec, blocker)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.plat.Access.Build(x.Build())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		select {
		case <-blocked:
		case <-time.After(10 * time.Second):
			t.Error("observer never received a sample")
			close(release)
			return
		}
		// The observer is now blocked. The run must still go to its
		// end: wait for its build to settle, then release.
		watchdog := time.After(10 * time.Second)
		for !b.State().Terminal() {
			select {
			case <-watchdog:
				t.Error("the run stalled behind a blocked observer")
				close(release)
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(release)
	}()
	res, err := x.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 10 s workload + 1 s padding at 1 kHz.
	if res.Current.Len() < 10000 {
		t.Fatalf("current trace %d samples, capture was stalled", res.Current.Len())
	}
	if res.DeviceCPU.Len() < 100 {
		t.Fatalf("device CPU trace %d samples, ticker was stalled", res.DeviceCPU.Len())
	}
	// Every posted sample was delivered before Wait returned, and the
	// feed absorbed the backlog without drops.
	posted, _, _ := b.Feed().SamplesSince(0)
	rec.mu.Lock()
	delivered := len(rec.samples)
	rec.mu.Unlock()
	if delivered < 100 || delivered != len(posted) {
		t.Fatalf("%d samples delivered of %d posted", delivered, len(posted))
	}
	if d := b.Summary.DroppedLiveSamples; d != 0 {
		t.Fatalf("%d samples dropped with an ample feed", d)
	}
}

// TestLiveSummariesFlowToObservers checks the satellite contract: each
// live Sample carries the monitor's streaming summary-so-far (count,
// mean, P50/P95, integral; no spread, see sampleOf), summaries are
// monotone in N, and the final one agrees with the returned trace.
func TestLiveSummariesFlowToObservers(t *testing.T) {
	r := newRig(t)
	rec := &recorder{}
	spec := idleSpec(r, 8*time.Second)
	spec.Monitor.SampleRateHz = 500
	res, err := run(r.plat, spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.samples) < 5 {
		t.Fatalf("only %d live samples", len(rec.samples))
	}
	prevN := -1
	for i, smp := range rec.samples {
		ls := smp.Live
		if ls.N == 0 {
			t.Fatalf("sample %d carried no live summary", i)
		}
		if ls.N < prevN {
			t.Fatalf("live N went backwards: %d after %d", ls.N, prevN)
		}
		prevN = ls.N
		if ls.P50 > ls.P95 || ls.Mean <= 0 || ls.Std != 0 || ls.Min != 0 || ls.Max != 0 {
			t.Fatalf("implausible live summary: %+v", ls)
		}
	}
	last := rec.samples[len(rec.samples)-1].Live
	if last.N > res.Current.Len() {
		t.Fatalf("live N %d exceeds final trace %d", last.N, res.Current.Len())
	}
	final := res.Current.Live()
	if final.N != res.Current.Len() {
		t.Fatalf("final live summary N = %d, trace len %d", final.N, res.Current.Len())
	}
	if final.IntegralSeconds/3600 != res.EnergyMAH {
		t.Fatal("energy disagrees with live integral")
	}
}

// TestCancelFromObserverCallback: an observer cancelling its own run
// from OnSample must not deadlock the follower against the teardown.
func TestCancelFromObserverCallback(t *testing.T) {
	clk := simclock.Real()
	plat, _, dev := newRealRig(t, clk)
	var x *Experiment
	started := make(chan struct{})
	var cancelOnce sync.Once
	obs := ObserverFuncs{Sample: func(Sample) {
		cancelOnce.Do(func() {
			<-started
			x.Cancel()
		})
	}}
	var err error
	x, err = plat.StartExperimentSpec(context.Background(), api.ExperimentSpec{
		Node: "node1", Device: dev.Serial(),
		Monitor:  api.MonitorSpec{SampleRateHz: 200, CPUSamplePeriodMS: 10, PaddingMS: 20},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 2500}},
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	close(started)
	done := make(chan struct{})
	var waitErr error
	go func() {
		_, waitErr = x.Wait(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancel from observer callback deadlocked the run")
	}
	if !errors.Is(waitErr, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", waitErr)
	}
}

// TestFailedSetupReleasesDeliveryGoroutine guards the follower's
// lifecycle: every run whose setup fails (here its VPN connect) settles
// its build, and the follower delivering its feed to the observers
// exits.
func TestFailedSetupReleasesDeliveryGoroutine(t *testing.T) {
	r := newRig(t)
	obs := ObserverFuncs{Sample: func(Sample) {}}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		spec := idleSpec(r, time.Second)
		spec.VPNLocation = "nowhere-exit"
		if _, err := run(r.plat, spec, obs); err == nil {
			t.Fatal("bad VPN location accepted")
		}
	}
	// Give exited followers a beat, then compare with a generous margin
	// for unrelated runtime goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d across 50 failed runs", before, after)
	}
}

// TestValidateTypedErrors checks that a spec that does not compile
// fails StartExperimentSpec with the sentinel callers branch on.
func TestValidateTypedErrors(t *testing.T) {
	r := newRig(t)
	cases := []struct {
		name   string
		mutate func(*api.ExperimentSpec)
		want   error
	}{
		{"unknown workload", func(s *api.ExperimentSpec) { s.Workload.Name = "defrag" }, ErrNoWorkload},
		{"usb", func(s *api.ExperimentSpec) { s.Transport = api.TransportUSB }, ErrUSBTransport},
		{"unknown node", func(s *api.ExperimentSpec) { s.Node = "nowhere" }, ErrUnknownNode},
		{"unknown device", func(s *api.ExperimentSpec) { s.Device = "nodevice" }, ErrUnknownDevice},
	}
	for _, tc := range cases {
		spec := idleSpec(r, time.Second)
		tc.mutate(&spec)
		if _, err := r.plat.StartExperimentSpec(context.Background(), spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// newRealRig assembles a platform on the real clock for the real-time
// cancellation tests.
func newRealRig(t *testing.T, clk simclock.Clock) (*Platform, *controller.Controller, *device.Device) {
	t.Helper()
	plat, err := NewPlatform(clk, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(clk, controller.Config{Name: "node1", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(clk, device.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.Join(ctl, "198.51.100.7:2222"); err != nil {
		t.Fatal(err)
	}
	return plat, ctl, dev
}
