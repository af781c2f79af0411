package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/adb"
	"batterylab/internal/api"
	"batterylab/internal/automation"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/power"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
	"batterylab/internal/trace"
)

// Phase is where a running experiment currently is. Phases advance
// monotonically through the setup pipeline of §3 and the run itself.
type Phase int

// Experiment phases, in execution order.
const (
	// PhasePending: the session exists but setup has not reached a
	// reportable milestone yet.
	PhasePending Phase = iota
	// PhaseVPNUp: the §4.3 tunnel is connected (skipped when the spec
	// has no VPNLocation).
	PhaseVPNUp
	// PhaseTransportArmed: the measurement-safe ADB channel (WiFi or
	// Bluetooth) is up, so USB power can be cut.
	PhaseTransportArmed
	// PhaseMirrorOn: the device-mirroring pipeline is streaming
	// (skipped when the spec has Mirroring false).
	PhaseMirrorOn
	// PhaseMonitorArmed: the relay settled and the Monsoon is sampling.
	PhaseMonitorArmed
	// PhaseWorkload: the automation script is executing. Observers also
	// receive one PhaseWorkload event per script step, carrying the
	// step name.
	PhaseWorkload
	// PhaseSettle: the script finished; the monitor is held through the
	// padding tail.
	PhaseSettle
	// PhaseDone: teardown completed. The PhaseChange carries the run's
	// terminal error, if any.
	PhaseDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePending:
		return "pending"
	case PhaseVPNUp:
		return "vpn-up"
	case PhaseTransportArmed:
		return "transport-armed"
	case PhaseMirrorOn:
		return "mirror-on"
	case PhaseMonitorArmed:
		return "monitor-armed"
	case PhaseWorkload:
		return "workload"
	case PhaseSettle:
		return "settle"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// phaseFromString inverts String for decoding feed records
// (phaseChangeOf). Unknown strings report false.
func phaseFromString(s string) (Phase, bool) {
	for p := PhasePending; p <= PhaseDone; p++ {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// PhaseChange is one phase-transition event delivered to observers.
// Node and Device identify the run, so one observer can watch a whole
// campaign's interleaved sessions and still attribute every event.
type PhaseChange struct {
	// Node and Device identify the run the event belongs to.
	Node   string
	Device string
	// Phase is the milestone reached.
	Phase Phase
	// At is the platform-clock instant of the transition.
	At time.Time
	// Step carries the workload step name on per-step PhaseWorkload
	// events ("" on the initial workload transition and other phases).
	Step string
	// Err is the run's terminal error on PhaseDone (nil on success).
	Err error
}

// Sample is one live progress reading delivered to observers while the
// monitor is armed: the device's true instantaneous draw, sampled at
// the spec's CPUSamplePeriod cadence. It is a live signal for progress
// UIs, not the monitor's trace — the Monsoon's ADC-noised, quantized
// samples at the full SampleRate arrive in Result.Current.
type Sample struct {
	// Node and Device identify the run the sample belongs to.
	Node      string
	Device    string
	At        time.Time
	CurrentMA float64
	// Live is the monitor-side streaming summary of the capture so far
	// (running mean, P50/P95, charge integral over every Monsoon sample
	// recorded up to At), without its spread: a feed carries no Std,
	// Min or Max.
	Live samples.LiveSummary
}

// Observer receives a run's progress from its build's feed: phase
// transitions and live samples, each in the order the run posted them.
// The callbacks run on the handle's follower (one per run, so callbacks
// for a campaign's runs may run concurrently, and over HTTP a run's
// phase and sample streams are followed concurrently too), not on the
// clock's dispatch context, so a slow observer never stalls the
// capture: the feed is bounded and, under sustained backpressure, drops
// live samples (counted in the run summary's DroppedLiveSamples) rather
// than queueing them without bound. Every accepted sample is delivered
// before the run's terminal PhaseDone event, and PhaseDone before the
// handle's Done closes — so a callback must not wait on its own
// handle's Wait or Done, which can then never return. Cancel from a
// callback is fine. A Sample's Live summary carries no Std, Min or Max.
type Observer interface {
	OnPhase(PhaseChange)
	OnSample(Sample)
}

// ObserverFuncs adapts plain functions to Observer; nil fields are
// skipped.
type ObserverFuncs struct {
	Phase  func(PhaseChange)
	Sample func(Sample)
}

// OnPhase implements Observer.
func (o ObserverFuncs) OnPhase(e PhaseChange) {
	if o.Phase != nil {
		o.Phase(e)
	}
}

// OnSample implements Observer.
func (o ObserverFuncs) OnSample(s Sample) {
	if o.Sample != nil {
		o.Sample(s)
	}
}

// session is one measurement in flight on a vantage point: setup,
// monitor, workload, settle tail and teardown, driven by clock
// callbacks. It is created by Platform.start, as a build's pipeline
// body, and is safe for concurrent use. Its phase events and live
// samples go to its build's feed. Every post runs on the clock's
// dispatch context, and a feed append never blocks (the buffers are
// bounded, drop-under-backpressure), so a slow or stalled consumer
// downstream cannot stall the capture loop.
type session struct {
	clock  simclock.Clock
	spec   experimentSpec
	ctl    *controller.Controller
	dev    *device.Device
	build  int
	feed   *feedhub.Feed
	onDone func(*Result, error)

	script   *automation.Script
	scripted time.Duration

	mu           sync.Mutex
	vpnConnected bool
	mirrorActive bool
	monitorArmed bool
	canceled     bool
	finished     bool
	startAt      time.Time
	live         samples.LiveSummary

	// Stage hooks, set as the run progresses.
	abortArm func() bool
	run      *automation.Run
	padTimer simclock.Timer

	devCPU     *trace.Series
	ctlCPU     *trace.Series
	devTicker  *simclock.Ticker
	stopCtlCPU func()

	// Test instrumentation: how many times teardown ran (must be 1) and
	// in which order resources were released.
	teardowns     int
	teardownOrder []string
}

// Cancel stops the run at the earliest safe point and tears everything
// down in reverse setup order (monitor, mirroring, VPN); the outcome is
// ErrCanceled. It is the build's cancel hook: idempotent, safe from any
// goroutine, and a no-op after completion.
func (s *session) Cancel() {
	s.mu.Lock()
	if s.finished || s.canceled {
		s.mu.Unlock()
		return
	}
	s.canceled = true
	abortArm, run, padTimer := s.abortArm, s.run, s.padTimer
	s.mu.Unlock()

	switch {
	case padTimer != nil:
		// In the settle tail: stop the padding timer and collect now. If
		// Stop loses the race the run is completing normally anyway.
		if padTimer.Stop() {
			s.finish(ErrCanceled)
		}
	case run != nil:
		// Mid-workload: the executor aborts at the next step boundary
		// (immediately when a step wait is pending) and the completion
		// callback maps ErrAborted to the cancellation error.
		run.Abort()
	case abortArm != nil:
		// Still arming: stop the settle timer and roll the relay back;
		// the monitor never started. If the arming callback wins the
		// race it observes the canceled flag and finishes for us.
		if abortArm() {
			s.finish(ErrCanceled)
		}
	}
}

// armTransport arms the measurement-safe automation channel while USB is
// still powered.
func (s *session) armTransport() error {
	switch s.spec.Transport {
	case TransportBluetooth:
		return s.ctl.ADB().SetTransport(s.spec.Device, adb.TransportBluetooth)
	default: // WiFi
		if err := s.ctl.ADB().EnableTCPIP(s.spec.Device); err != nil {
			return err
		}
		return s.ctl.ADB().SetTransport(s.spec.Device, adb.TransportWiFi)
	}
}

// instrument wraps the script's steps so the feed carries per-step
// PhaseWorkload events.
func (s *session) instrument(script *automation.Script) *automation.Script {
	out := automation.NewScript(script.Name())
	for _, st := range script.Steps() {
		st := st
		out.Add(st.Name, st.Wait, func() error {
			s.postPhase(PhaseWorkload, st.Name, nil)
			if st.Do == nil {
				return nil
			}
			return st.Do()
		})
	}
	return out
}

// armed is ArmMonitor's completion callback: the relay has settled and
// the monitor is sampling (or arming failed). It starts the CPU
// instrumentation and the workload.
func (s *session) armed(armErr error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	canceled := s.canceled
	if armErr == nil {
		s.monitorArmed = true
		s.startAt = s.clock.Now()
	}
	s.mu.Unlock()

	if canceled {
		s.finish(ErrCanceled)
		return
	}
	if armErr != nil {
		s.finish(armErr)
		return
	}

	// CPU instrumentation, from the armed instant like the monitor.
	devCPU := trace.NewSeries("device-cpu", "percent")
	devTicker := simclock.NewTicker(s.clock, s.spec.CPUSamplePeriod, func(now time.Time) {
		devCPU.MustAppend(now, s.dev.CPU().UtilAt(now))
		current := power.At(s.dev, now)
		live, err := s.ctl.Monsoon().LiveSummary()
		s.mu.Lock()
		switch {
		case err != nil:
			// A tick can race teardown's StopMonitor on the real clock;
			// carry the last snapshot instead of a zero summary.
			live = s.live
		case live.N >= s.live.N:
			// The snapshot only moves forward; never regress it on a
			// tick that lost a race with teardown.
			s.live = live
		}
		s.mu.Unlock()
		pt := api.SamplePoint{
			AtNS:      now.UnixNano(),
			CurrentMA: current,
			N:         int64(live.N),
			MeanMA:    live.Mean,
			IntegralS: live.IntegralSeconds,
		}
		if live.N > 0 { // before the first sample they are NaN, which NDJSON cannot carry
			pt.P50MA, pt.P95MA = live.P50, live.P95
		}
		s.feed.PostSample(pt)
	})
	ctlCPU, stopCtlCPU := s.ctl.MonitorCPU(s.spec.CPUSamplePeriod)
	s.mu.Lock()
	s.devCPU, s.ctlCPU = devCPU, ctlCPU
	s.devTicker, s.stopCtlCPU = devTicker, stopCtlCPU
	s.mu.Unlock()
	s.postPhase(PhaseMonitorArmed, "", nil)

	// Run the workload; completion flows through finish exactly once.
	s.postPhase(PhaseWorkload, "", nil)
	exec := automation.NewExecutor(s.clock)
	run := exec.Run(s.script, s.scriptDone)
	s.mu.Lock()
	s.run = run
	s.abortArm = nil
	canceled = s.canceled
	s.mu.Unlock()
	if canceled {
		// Cancel arrived while we were arming (after the snapshot at the
		// top): it found nothing to abort, so abort the run for it.
		run.Abort()
	}
}

// scriptDone is the executor's completion callback.
func (s *session) scriptDone(scriptErr error) {
	if scriptErr != nil {
		if errors.Is(scriptErr, automation.ErrAborted) {
			s.finish(ErrCanceled)
			return
		}
		s.finish(fmt.Errorf("core: workload: %w", scriptErr))
		return
	}
	// Hold the monitor through the padding tail, then collect.
	s.postPhase(PhaseSettle, "", nil)
	t := s.clock.AfterFunc(s.spec.Padding, func() { s.finish(nil) })
	s.mu.Lock()
	s.run = nil
	s.padTimer = t
	canceled := s.canceled
	s.mu.Unlock()
	if canceled && t.Stop() {
		s.finish(ErrCanceled)
	}
}

// teardownSetup releases what a failed synchronous setup acquired (VPN
// and mirroring); the monitor was not armed yet.
func (s *session) teardownSetup() {
	if s.mirrorActive {
		if sess, err := s.ctl.MirrorSession(s.spec.Device); err == nil {
			sess.Stop()
		}
		s.mirrorActive = false
	}
	if s.vpnConnected {
		s.ctl.VPN().Disconnect()
		s.vpnConnected = false
	}
}

// finish tears the run down exactly once — monitor, then mirroring, then
// VPN: the reverse of setup order — posts the terminal PhaseDone and
// hands the outcome to onDone.
func (s *session) finish(runErr error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	monitorArmed := s.monitorArmed
	mirrorActive := s.mirrorActive
	vpnConnected := s.vpnConnected
	devTicker, stopCtlCPU := s.devTicker, s.stopCtlCPU
	startAt := s.startAt
	s.mu.Unlock()

	if devTicker != nil {
		devTicker.Stop()
	}
	if stopCtlCPU != nil {
		stopCtlCPU()
	}
	var mirrorBytes int64
	var mirrorSess interface {
		BytesSent() int64
		Stop()
	}
	if mirrorActive {
		if sess, err := s.ctl.MirrorSession(s.spec.Device); err == nil {
			mirrorSess = sess
			mirrorBytes = sess.BytesSent()
		}
	}
	var current *trace.Series
	var stopErr error
	order := make([]string, 0, 3)
	if monitorArmed {
		current, stopErr = s.ctl.StopMonitor()
		order = append(order, "monitor")
	}
	if mirrorSess != nil {
		mirrorSess.Stop()
		order = append(order, "mirror")
	}
	if vpnConnected {
		s.ctl.VPN().Disconnect()
		order = append(order, "vpn")
	}

	var res *Result
	var err error
	switch {
	case runErr != nil:
		err = runErr
	case stopErr != nil:
		err = stopErr
	default:
		res = &Result{
			Current:           current,
			DeviceCPU:         s.devCPU,
			ControllerCPU:     s.ctlCPU,
			EnergyMAH:         current.EnergyMAH(),
			Duration:          s.clock.Now().Sub(startAt),
			MirrorUploadBytes: mirrorBytes,
		}
	}

	s.mu.Lock()
	s.teardowns++
	s.teardownOrder = order
	s.mu.Unlock()

	s.postPhase(PhaseDone, "", err)
	if s.onDone != nil {
		s.onDone(res, err)
	}
}

// postPhase posts a phase transition to the run's feed; err is the
// run's terminal error on PhaseDone. phaseChangeOf decodes it.
func (s *session) postPhase(p Phase, step string, err error) {
	ev := api.BuildEvent{
		Build:  s.build,
		Node:   s.spec.Node,
		Device: s.spec.Device,
		Phase:  p.String(),
		Step:   step,
		AtNS:   s.clock.Now().UnixNano(),
	}
	if err != nil {
		ev.Error = err.Error()
	}
	s.feed.PostEvent(ev)
}
