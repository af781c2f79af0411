package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

func assertTornDown(t *testing.T, r *rig, s *Session) {
	t.Helper()
	if r.ctl.VPN().Active() != nil {
		t.Error("VPN left connected")
	}
	if sess, err := r.ctl.MirrorSession(r.serial); err == nil && sess.Active() {
		t.Error("mirroring left active")
	}
	if r.ctl.Measuring() != "" {
		t.Error("monitor still held")
	}
	s.mu.Lock()
	teardowns := s.teardowns
	s.mu.Unlock()
	if teardowns != 1 {
		t.Errorf("teardown ran %d times, want exactly 1", teardowns)
	}
}

func TestCancelMidWorkloadVirtual(t *testing.T) {
	r := newRig(t)
	spec := ExperimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 200,
		Mirroring: true, VPNLocation: "Bunkyo",
		Workload: sleepWorkload(60, time.Second),
	}
	sess, err := r.plat.StartExperiment(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Scripted(); got != 61*time.Second { // 60×1 s + 1 s default padding
		t.Fatalf("scripted = %v, want 61s", got)
	}
	// Cancel from a clock callback halfway through the workload — the
	// deterministic way to cancel under the virtual clock.
	r.clk.AfterFunc(30*time.Second, func() { sess.Cancel() })
	res, err := sess.Wait(context.Background())
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertTornDown(t, r, sess)
	// Teardown happens in reverse setup order: monitor, mirror, VPN.
	sess.mu.Lock()
	order := strings.Join(sess.teardownOrder, ",")
	sess.mu.Unlock()
	if order != "monitor,mirror,vpn" {
		t.Fatalf("teardown order = %s, want monitor,mirror,vpn", order)
	}
	// Cancel is idempotent after completion.
	sess.Cancel()
	sess.Cancel()
	assertTornDown(t, r, sess)
	// The device is free for the next experimenter.
	if _, err := r.plat.RunExperiment(context.Background(), ExperimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 200,
		Workload: sleepWorkload(2, time.Second),
	}); err != nil {
		t.Fatalf("follow-up run after cancel: %v", err)
	}
}

func TestCancelMidWorkloadRealClock(t *testing.T) {
	clk := simclock.Real()
	plat, ctl, dev := newRealRig(t, clk)
	serial := dev.Serial()
	spec := ExperimentSpec{
		Node: "node1", Device: serial, SampleRate: 100,
		Mirroring: true, VPNLocation: "Bunkyo",
		Padding:         50 * time.Millisecond,
		CPUSamplePeriod: 20 * time.Millisecond,
		Workload:        sleepWorkload(40, 50*time.Millisecond),
	}
	sess, err := plat.StartExperiment(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		sess.Cancel()
	}()
	res, err := sess.Wait(context.Background())
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ctl.VPN().Active() != nil {
		t.Error("VPN left connected")
	}
	if ms, err := ctl.MirrorSession(serial); err == nil && ms.Active() {
		t.Error("mirroring left active")
	}
	if ctl.Measuring() != "" {
		t.Error("monitor still held")
	}
	sess.mu.Lock()
	teardowns := sess.teardowns
	sess.mu.Unlock()
	if teardowns != 1 {
		t.Errorf("teardown ran %d times, want exactly 1", teardowns)
	}
}

func TestContextCancelTearsDown(t *testing.T) {
	r := newRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := r.plat.StartExperiment(ctx, ExperimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 200,
		VPNLocation: "Bunkyo",
		Workload:    sleepWorkload(30, time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	res, err := sess.Wait(ctx)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertTornDown(t, r, sess)
	if err := ctx.Err(); err == nil {
		t.Fatal("ctx not canceled?")
	}
	// A pre-canceled context refuses to start at all.
	if _, err := r.plat.StartExperiment(ctx, ExperimentSpec{
		Node: "node1", Device: r.serial,
		Workload: sleepWorkload(1, time.Second),
	}); err == nil {
		t.Fatal("StartExperiment accepted a canceled context")
	}
}

func TestPhaseObserverSequence(t *testing.T) {
	r := newRig(t)
	r.dev.Storage().Push("/sdcard/v.mp4", video.SampleMP4(1<<20))
	r.dev.Install(video.NewPlayer("/sdcard/v.mp4"))
	rec := &recorder{}
	res, err := r.plat.RunExperiment(context.Background(), ExperimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 200,
		Mirroring: true, VPNLocation: "Santa Clara",
		Workload: func(drv automation.Driver) *automation.Script {
			s := automation.NewScript("video")
			s.Add("launch", 20*time.Second, func() error {
				_, err := drv.LaunchApp(video.PackageName)
				return err
			})
			return s
		},
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
// OnSample callback that blocks must not stall the Monsoon capture loop
// or the CPU monitors — live samples are fanned out on a dedicated
// delivery goroutine. The helper goroutine only releases the blocked
// observer after the monitor has provably captured thousands of samples
// past the block; with synchronous (capture-path) delivery the clock
// driver would be stuck inside the callback and Live().N could never
// advance, so the watchdog would fire.
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
	sess, err := r.plat.StartExperiment(context.Background(), ExperimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 1000,
		CPUSamplePeriod: 100 * time.Millisecond,
		Workload:        sleepWorkload(10, time.Second),
	}, rec, blocker)
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
		// The observer is now blocked. Capture must keep flowing: wait
		// for the monitor-side live summary to advance well past the
		// blocking instant, then release.
		watchdog := time.After(10 * time.Second)
		for sess.Live().N < 5000 {
			select {
			case <-watchdog:
				t.Errorf("capture stalled behind a blocked observer: live N = %d", sess.Live().N)
				close(release)
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(release)
	}()
	res, err := sess.Wait(context.Background())
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
	// Every accepted sample was delivered before Wait returned, and the
	// 1024-slot queue absorbed the ~110-sample backlog without drops.
	rec.mu.Lock()
	delivered := len(rec.samples)
	rec.mu.Unlock()
	if delivered < 100 {
		t.Fatalf("only %d samples delivered", delivered)
	}
	if d := sess.DroppedSamples(); d != 0 {
		t.Fatalf("%d samples dropped with an ample queue", d)
	}
}

// TestLiveSummariesFlowToObservers checks the satellite contract: each
// live Sample carries the monitor's streaming summary-so-far, summaries
// are monotone in N, and the final one agrees with the returned trace.
func TestLiveSummariesFlowToObservers(t *testing.T) {
	r := newRig(t)
	rec := &recorder{}
	res, err := r.plat.RunExperiment(context.Background(), ExperimentSpec{
		Node: "node1", Device: r.serial, SampleRate: 500,
		Workload: sleepWorkload(8, time.Second),
	}, rec)
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
		if ls.P50 > ls.P95 || ls.Min > ls.Max || ls.Mean <= 0 {
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

// TestCancelFromObserverCallback exercises the re-entrant stop path: an
// observer cancelling its own session from OnSample must not deadlock
// the delivery goroutine against the teardown flush.
func TestCancelFromObserverCallback(t *testing.T) {
	clk := simclock.Real()
	plat, _, dev := newRealRig(t, clk)
	var sess *Session
	started := make(chan struct{})
	var cancelOnce sync.Once
	obs := ObserverFuncs{Sample: func(Sample) {
		cancelOnce.Do(func() {
			<-started
			sess.Cancel()
		})
	}}
	var err error
	sess, err = plat.StartExperiment(context.Background(), ExperimentSpec{
		Node: "node1", Device: dev.Serial(), SampleRate: 200,
		CPUSamplePeriod: 10 * time.Millisecond,
		Padding:         20 * time.Millisecond,
		Workload:        sleepWorkload(50, 50*time.Millisecond),
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	close(started)
	done := make(chan struct{})
	go func() {
		sess.Wait(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancel from observer callback deadlocked the session")
	}
	if _, err := sess.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestFailedSetupReleasesDeliveryGoroutine guards the obsMux lifecycle:
// every failed StartExperiment with observers must stop the per-session
// delivery goroutine, including the VPN-connect branch that fails
// before the shared fail helper exists.
func TestFailedSetupReleasesDeliveryGoroutine(t *testing.T) {
	r := newRig(t)
	obs := ObserverFuncs{Sample: func(Sample) {}}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := r.plat.StartExperiment(context.Background(), ExperimentSpec{
			Node: "node1", Device: r.serial,
			VPNLocation: "nowhere-exit",
			Workload:    sleepWorkload(1, time.Second),
		}, obs); err == nil {
			t.Fatal("bad VPN location accepted")
		}
	}
	// Give stopped delivery goroutines a beat to exit, then compare
	// with a generous margin for unrelated runtime goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d across 50 failed starts", before, after)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	r := newRig(t)
	wl := sleepWorkload(1, time.Second)
	cases := []struct {
		name string
		spec ExperimentSpec
		want error
	}{
		{"no workload", ExperimentSpec{Node: "node1", Device: r.serial}, ErrNoWorkload},
		{"usb", ExperimentSpec{Node: "node1", Device: r.serial, Transport: TransportUSB, Workload: wl}, ErrUSBTransport},
		{"empty node", ExperimentSpec{Device: r.serial, Workload: wl}, ErrUnknownNode},
		{"unknown node", ExperimentSpec{Node: "nowhere", Device: r.serial, Workload: wl}, ErrUnknownNode},
		{"empty device", ExperimentSpec{Node: "node1", Workload: wl}, ErrUnknownDevice},
		{"unknown device", ExperimentSpec{Node: "node1", Device: "nodevice", Workload: wl}, ErrUnknownDevice},
	}
	for _, tc := range cases {
		_, err := r.plat.RunExperiment(context.Background(), tc.spec)
		if !errors.Is(err, tc.want) {
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
