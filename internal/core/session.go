package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"batterylab/internal/adb"
	"batterylab/internal/automation"
	"batterylab/internal/controller"
	"batterylab/internal/device"
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
// (PhaseChangeOf). Unknown strings report false.
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
	// recorded up to At). Zero when the monitor is not sampling.
	Live samples.LiveSummary
}

// Observer receives a session's progress. OnPhase callbacks run on the
// clock's dispatch context (the driving goroutine under a Virtual
// clock, timer goroutines under the Real clock) and must not block or
// drive the clock. OnSample callbacks are decoupled from the capture
// path: they run on a per-session delivery goroutine, so a slow
// observer never stalls the Monsoon's sampling or the CPU monitors —
// under sustained backpressure live samples are dropped (counted by
// Session.DroppedSamples) rather than queued without bound. All
// accepted samples are delivered before the session's PhaseDone event
// and before Done closes — which also means an OnSample callback must
// not wait on the session's own completion (Wait or Done): teardown
// flushes the delivery queue before Done closes, so such a wait can
// never be satisfied. Cancel from a callback is fine.
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

// obsMuxBuffer bounds the live-sample delivery queue. At the default
// 1 s CPUSamplePeriod this is over 17 minutes of backlog before a
// stuck observer costs a sample.
const obsMuxBuffer = 1024

// obsMux fans live samples out to observers on a dedicated goroutine,
// decoupling observer latency from the capture path. Phase events stay
// synchronous (they are rare and ordered); samples flow through a
// bounded queue with a drop-newest policy under backpressure.
type obsMux struct {
	obs []Observer
	ch  chan Sample
	// drained closes when the delivery goroutine has exited (queue
	// empty, channel closed).
	drained chan struct{}
	goid    uint64 // delivery goroutine id, for re-entrant stop()

	mu      sync.Mutex
	closed  bool
	dropped int64
}

func newObsMux(obs []Observer) *obsMux {
	m := &obsMux{
		obs:     obs,
		ch:      make(chan Sample, obsMuxBuffer),
		drained: make(chan struct{}),
	}
	ready := make(chan struct{})
	go func() {
		m.goid = goroutineID()
		close(ready)
		for s := range m.ch {
			for _, o := range m.obs {
				o.OnSample(s)
			}
		}
		close(m.drained)
	}()
	<-ready
	return m
}

// post enqueues a sample without ever blocking the caller (the capture
// path). A full queue drops the sample; a stopped mux ignores it (a
// ticker tick can still be in flight while teardown runs).
func (m *obsMux) post(s Sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	select {
	case m.ch <- s:
	default:
		m.dropped++
	}
}

// stop closes intake and waits until every queued sample has been
// delivered. Idempotent. When called from an observer callback itself
// (an OnSample handler cancelling its own session), it skips the wait
// instead of deadlocking; the handful of trailing samples then drain
// after Done.
func (m *obsMux) stop() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.ch)
	}
	m.mu.Unlock()
	if goroutineID() == m.goid {
		return
	}
	<-m.drained
}

func (m *obsMux) droppedCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// goroutineID parses the current goroutine's id from its stack header —
// only used to make obsMux.stop re-entrancy-safe.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(b[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}

// Session is a handle to one in-flight experiment. It is created by
// Platform.StartExperiment and is safe for concurrent use.
type Session struct {
	platform  *Platform
	clock     simclock.Clock
	spec      ExperimentSpec
	ctl       *controller.Controller
	dev       *device.Device
	observers []Observer
	mux       *obsMux // nil without observers
	onDone    func(*Result, error)

	script   *automation.Script
	scripted time.Duration

	// done closes when teardown has completed and the outcome is set.
	done chan struct{}

	mu           sync.Mutex
	phase        Phase
	vpnConnected bool
	mirrorActive bool
	monitorArmed bool
	canceled     bool
	cancelCause  error
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

	res *Result
	err error

	// Test instrumentation: how many times teardown ran (must be 1) and
	// in which order resources were released.
	teardowns     int
	teardownOrder []string
}

// Done returns a channel closed when the run has fully torn down.
func (s *Session) Done() <-chan struct{} { return s.done }

// Phase reports the session's current phase.
func (s *Session) Phase() Phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
}

// Spec returns the (defaults-filled) spec the session runs.
func (s *Session) Spec() ExperimentSpec { return s.spec }

// Live reports the most recent streaming summary of the monitor's
// capture (mean/P50/P95/integral so far) — the same snapshot observers
// receive in Sample.Live. Zero until the monitor arms.
func (s *Session) Live() samples.LiveSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// DroppedSamples reports how many live samples were dropped because
// observers could not keep up with the capture cadence. Always zero for
// sessions without observers.
func (s *Session) DroppedSamples() int64 {
	if s.mux == nil {
		return 0
	}
	return s.mux.droppedCount()
}

// Scripted reports the scripted duration: the workload's total wait plus
// the padding tail. The measured Duration is at least this.
func (s *Session) Scripted() time.Duration { return s.scripted }

// Result reports the outcome. It is only meaningful once Done is closed;
// before that it returns (nil, nil).
func (s *Session) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// Cancel stops the run at the earliest safe point and tears everything
// down in reverse setup order (monitor, mirroring, VPN). It is
// idempotent and safe from any goroutine; a canceled run's Wait returns
// an error matching ErrCanceled. Cancel after completion is a no-op.
func (s *Session) Cancel() { s.cancelWith(nil) }

func (s *Session) cancelWith(cause error) {
	s.mu.Lock()
	if s.finished || s.canceled {
		s.mu.Unlock()
		return
	}
	s.canceled = true
	s.cancelCause = cause
	abortArm, run, padTimer := s.abortArm, s.run, s.padTimer
	s.mu.Unlock()

	switch {
	case padTimer != nil:
		// In the settle tail: stop the padding timer and collect now. If
		// Stop loses the race the run is completing normally anyway.
		if padTimer.Stop() {
			s.finish(s.canceledErr())
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
			s.finish(s.canceledErr())
		}
	}
}

func (s *Session) canceledErr() error {
	s.mu.Lock()
	cause := s.cancelCause
	s.mu.Unlock()
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %v", ErrCanceled, cause)
}

// Wait blocks until the run completes and returns its outcome. On a
// Virtual platform clock it drives simulated time itself, instant by
// instant; concurrent Waits (sessions or campaigns waited from several
// goroutines) take turns on the clock. Cancelling ctx
// cancels the run, tears it down, and returns the cancellation error.
func (s *Session) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, ok := s.clock.(*simclock.Virtual)
	if !ok {
		select {
		case <-s.done:
		case <-ctx.Done():
			s.cancelWith(context.Cause(ctx))
			<-s.done
		}
		return s.Result()
	}
	// A generous budget so a stuck workload cannot drive time forever.
	deadline := v.Now().Add(s.scripted*2 + time.Minute)
	err := drive(ctx, v, isClosed(s.done), func() time.Time { return deadline })
	if err != nil {
		if ctx.Err() != nil {
			// Under the virtual clock cancellation tears down
			// synchronously on this goroutine.
			s.cancelWith(context.Cause(ctx))
			<-s.done
			return s.Result()
		}
		// Budget blown or clock stalled: still release the hardware —
		// an abandoned session must not leave the monitor armed or the
		// VPN up for the next experimenter.
		s.cancelWith(err)
		return nil, err
	}
	return s.Result()
}

// armTransport arms the measurement-safe automation channel while USB is
// still powered.
func (s *Session) armTransport() error {
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

// instrument wraps the script's steps so observers see per-step
// PhaseWorkload events; without observers the script runs untouched.
func (s *Session) instrument(script *automation.Script) *automation.Script {
	if len(s.observers) == 0 {
		return script
	}
	out := automation.NewScript(script.Name())
	for _, st := range script.Steps() {
		st := st
		out.Add(st.Name, st.Wait, func() error {
			s.setPhase(PhaseWorkload, st.Name)
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
func (s *Session) armed(armErr error) {
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
		s.finish(s.canceledErr())
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
		smp := Sample{
			Node: s.spec.Node, Device: s.spec.Device,
			At: now, CurrentMA: s.dev.CurrentMA(now),
		}
		if live, err := s.ctl.Monsoon().LiveSummary(); err == nil {
			smp.Live = live
		} else {
			// A tick can race teardown's StopMonitor on the real clock;
			// carry the last snapshot instead of a zero summary.
			smp.Live = s.Live()
		}
		s.notifySample(smp)
	})
	ctlCPU, stopCtlCPU := s.ctl.MonitorCPU(s.spec.CPUSamplePeriod)
	s.mu.Lock()
	s.devCPU, s.ctlCPU = devCPU, ctlCPU
	s.devTicker, s.stopCtlCPU = devTicker, stopCtlCPU
	s.mu.Unlock()
	s.setPhase(PhaseMonitorArmed, "")

	// Run the workload; completion flows through finish exactly once.
	s.setPhase(PhaseWorkload, "")
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
func (s *Session) scriptDone(scriptErr error) {
	if scriptErr != nil {
		if errors.Is(scriptErr, automation.ErrAborted) {
			s.finish(s.canceledErr())
			return
		}
		s.finish(fmt.Errorf("core: workload: %w", scriptErr))
		return
	}
	// Hold the monitor through the padding tail, then collect.
	s.setPhase(PhaseSettle, "")
	t := s.clock.AfterFunc(s.spec.Padding, func() { s.finish(nil) })
	s.mu.Lock()
	s.run = nil
	s.padTimer = t
	canceled := s.canceled
	s.mu.Unlock()
	if canceled && t.Stop() {
		s.finish(s.canceledErr())
	}
}

// teardownSetup releases what a failed synchronous setup acquired (VPN
// and mirroring); the monitor was not armed yet.
func (s *Session) teardownSetup() {
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
// VPN: the reverse of setup order — records the outcome, notifies
// observers and closes Done.
func (s *Session) finish(runErr error) {
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
	s.res, s.err = res, err
	s.phase = PhaseDone
	s.teardowns++
	s.teardownOrder = order
	s.mu.Unlock()

	// Flush the live-sample queue so observers see every accepted sample
	// before the terminal phase event and before Done closes.
	if s.mux != nil {
		s.mux.stop()
	}
	s.notifyPhase(PhaseChange{
		Node: s.spec.Node, Device: s.spec.Device,
		Phase: PhaseDone, At: s.clock.Now(), Err: err,
	})
	close(s.done)
	if s.onDone != nil {
		s.onDone(res, err)
	}
}

// setPhase advances the session's phase (monotonically) and notifies
// observers.
func (s *Session) setPhase(p Phase, step string) {
	s.mu.Lock()
	if p > s.phase {
		s.phase = p
	}
	s.mu.Unlock()
	s.notifyPhase(PhaseChange{
		Node: s.spec.Node, Device: s.spec.Device,
		Phase: p, At: s.clock.Now(), Step: step,
	})
}

func (s *Session) notifyPhase(e PhaseChange) {
	for _, o := range s.observers {
		o.OnPhase(e)
	}
}

func (s *Session) notifySample(smp Sample) {
	s.mu.Lock()
	// Live summaries only move forward; never regress the handle's
	// snapshot on a tick that lost a race with teardown.
	if smp.Live.N >= s.live.N {
		s.live = smp.Live
	}
	s.mu.Unlock()
	if s.mux != nil {
		s.mux.post(smp)
	}
}
