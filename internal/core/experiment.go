package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"batterylab/internal/automation"
	"batterylab/internal/simclock"
	"batterylab/internal/trace"
)

// Transport selects the measurement-time ADB channel. The zero value is
// WiFi — the measurement-safe default the paper uses. USB is listed only
// to be rejected with an explanatory error.
type Transport int

// Transports.
const (
	TransportWiFi Transport = iota
	TransportBluetooth
	TransportUSB
)

// Typed sentinel errors for spec validation and lookup failures. Callers
// branch with errors.Is rather than matching message strings.
var (
	// ErrUnknownNode reports a vantage point that is not joined to the
	// platform (or an empty Node field).
	ErrUnknownNode = errors.New("core: unknown vantage point")
	// ErrUnknownDevice reports a device serial the target vantage point
	// does not host (or an empty Device field).
	ErrUnknownDevice = errors.New("core: unknown device")
	// ErrUSBTransport rejects measuring over USB: the port's
	// micro-controller activation current corrupts the measurement
	// (§3.3). Use WiFi or Bluetooth.
	ErrUSBTransport = errors.New("core: USB transport corrupts measurements; use WiFi or Bluetooth")
	// ErrNoWorkload reports a spec without a workload builder.
	ErrNoWorkload = errors.New("core: experiment needs a workload")
	// ErrCanceled reports a run ended by Session.Cancel, campaign or
	// build cancellation, or context cancellation. Teardown still
	// completed.
	ErrCanceled = errors.New("core: experiment canceled")
	// ErrNodeLost reports a remote run that failed because its vantage
	// point died (and the scheduler's failover budget was spent). The
	// client maps the v1 node_lost status flag onto it.
	ErrNodeLost = errors.New("core: vantage point lost")
)

// ExperimentSpec describes one battery measurement run — the programmatic
// equivalent of a Jenkins job built from the Table 1 API.
type ExperimentSpec struct {
	// Node and Device select the vantage point and test device.
	Node   string
	Device string
	// SampleRate is the monitor's sampling rate in Hz (0 = hardware
	// maximum, 5 kHz). Long sweeps use lower rates to bound memory.
	SampleRate int
	// VoltageV is the monitor output voltage (0 = the device battery's
	// nominal voltage).
	VoltageV float64
	// Mirroring activates the device-mirroring pipeline for the run —
	// the knob whose cost §4.1/4.2 quantify.
	Mirroring bool
	// VPNLocation tunnels the vantage point's traffic through a
	// ProtonVPN exit ("" = direct) — the §4.3 knob.
	VPNLocation string
	// Transport is the ADB channel used during the measurement.
	// Defaults to WiFi, the paper's measurement-safe choice.
	Transport Transport
	// Workload builds the automation script given the run's driver.
	Workload func(drv automation.Driver) *automation.Script
	// CPUSamplePeriod controls the device/controller CPU monitors
	// (default 1 s).
	CPUSamplePeriod time.Duration
	// Padding holds the monitor running after the script completes
	// (settle tail; default 1 s).
	Padding time.Duration
}

// Validate checks the spec's self-contained invariants and returns a
// typed sentinel error (wrapped with detail) on the first violation.
// Node/device existence is checked against the platform at start time,
// with the same sentinels.
func (s *ExperimentSpec) Validate() error {
	if s.Node == "" {
		return fmt.Errorf("%w: spec.Node is empty", ErrUnknownNode)
	}
	if s.Device == "" {
		return fmt.Errorf("%w: spec.Device is empty", ErrUnknownDevice)
	}
	if s.Workload == nil {
		return ErrNoWorkload
	}
	switch s.Transport {
	case TransportWiFi, TransportBluetooth:
	case TransportUSB:
		return ErrUSBTransport
	default:
		return fmt.Errorf("core: unknown transport %d", s.Transport)
	}
	if s.SampleRate < 0 {
		return fmt.Errorf("core: negative sample rate %d", s.SampleRate)
	}
	if s.VoltageV < 0 {
		return fmt.Errorf("core: negative voltage %v", s.VoltageV)
	}
	if s.CPUSamplePeriod < 0 || s.Padding < 0 {
		return errors.New("core: negative durations in spec")
	}
	return nil
}

// withDefaults fills the zero-value knobs.
func (s ExperimentSpec) withDefaults(nominalVoltage float64) ExperimentSpec {
	if s.CPUSamplePeriod == 0 {
		s.CPUSamplePeriod = time.Second
	}
	if s.Padding == 0 {
		s.Padding = time.Second
	}
	if s.VoltageV == 0 {
		s.VoltageV = nominalVoltage
	}
	return s
}

// Result carries everything a run measured.
type Result struct {
	// Current is the power monitor's trace (mA).
	Current *trace.Series
	// DeviceCPU and ControllerCPU are 1 Hz utilization traces (%).
	DeviceCPU     *trace.Series
	ControllerCPU *trace.Series
	// EnergyMAH is the discharge over the run.
	EnergyMAH float64
	// MirrorUploadBytes is the device→controller stream volume.
	MirrorUploadBytes int64
	// Duration is the measured window.
	Duration time.Duration
}

// RunExperiment executes a measurement end to end on a joined vantage
// point and blocks until it completes, fails, or ctx is canceled
// (cancellation tears the VPN, mirroring session and monitor down in
// reverse setup order before returning). On a Virtual clock it drives
// simulated time itself, so a 7-minute workload returns in milliseconds;
// on the Real clock it blocks for the workload's actual duration.
func (p *Platform) RunExperiment(ctx context.Context, spec ExperimentSpec, obs ...Observer) (*Result, error) {
	sess, err := p.StartExperiment(ctx, spec, obs...)
	if err != nil {
		return nil, err
	}
	return sess.Wait(ctx)
}

// StartExperiment sets a measurement up and schedules its workload,
// returning a Session handle immediately. The session exposes Wait,
// Cancel, the current Phase and the scripted duration; observers receive
// phase transitions and live current samples. Setup errors that can be
// detected synchronously (validation, unknown node/device, VPN or
// transport failures) are returned here; later failures surface through
// Wait. Cancelling ctx cancels the run.
func (p *Platform) StartExperiment(ctx context.Context, spec ExperimentSpec, obs ...Observer) (*Session, error) {
	return p.start(ctx, spec, obs, nil)
}

// start is the shared setup path behind StartExperiment and the
// access-server measurement jobs (campaigns among them). onDone, when non-nil, is invoked
// exactly once from the teardown path with the run's outcome.
func (p *Platform) start(ctx context.Context, spec ExperimentSpec, obs []Observer, onDone func(*Result, error)) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctl, err := p.Controller(spec.Node)
	if err != nil {
		return nil, err
	}
	dev, err := ctl.Device(spec.Device)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownDevice, err)
	}
	spec = spec.withDefaults(dev.Battery().NominalVoltage())

	s := &Session{
		platform:  p,
		clock:     p.clock,
		spec:      spec,
		ctl:       ctl,
		dev:       dev,
		observers: obs,
		onDone:    onDone,
		done:      make(chan struct{}),
	}
	if len(obs) > 0 {
		// Live samples are fanned out on a dedicated delivery goroutine
		// so observer latency never stalls the capture path.
		s.mux = newObsMux(obs)
	}

	// 1. Network location (§4.3).
	if spec.VPNLocation != "" {
		if _, err := ctl.VPN().Connect(spec.VPNLocation); err != nil {
			if s.mux != nil {
				s.mux.stop() // release the delivery goroutine
			}
			return nil, err
		}
		s.vpnConnected = true
		s.setPhase(PhaseVPNUp, "")
	}
	fail := func(err error) (*Session, error) {
		s.teardownSetup()
		// Observers that saw this run enter phases get the terminal
		// event too, with the setup failure attached.
		s.mu.Lock()
		s.phase = PhaseDone
		s.mu.Unlock()
		if s.mux != nil {
			s.mux.stop() // no samples flowed; release the delivery goroutine
		}
		s.notifyPhase(PhaseChange{
			Node: spec.Node, Device: spec.Device,
			Phase: PhaseDone, At: p.clock.Now(), Err: err,
		})
		return nil, err
	}

	// 2. Automation channel (§3.3): arm the measurement-safe transport
	// while USB is still up.
	if err := s.armTransport(); err != nil {
		return fail(err)
	}
	s.setPhase(PhaseTransportArmed, "")

	// 3. Mirroring (§3.2), before the monitor so its cost is measured.
	if spec.Mirroring {
		sess, err := ctl.MirrorSession(spec.Device)
		if err != nil {
			return fail(err)
		}
		if err := sess.Start(0); err != nil {
			return fail(err)
		}
		s.mirrorActive = true
		s.setPhase(PhaseMirrorOn, "")
	}

	// 4. Build the workload script up front so the scripted duration is
	// known before the monitor arms.
	drv := automation.NewADBDriver(ctl.ADB(), spec.Device)
	script := spec.Workload(drv)
	s.script = s.instrument(script)
	s.scripted = script.TotalWait() + spec.Padding

	// 5. Power and program the monitor, then arm it event-driven: the
	// relay flips now, sampling starts at the settle instant without
	// advancing the shared clock (concurrent campaigns keep their own
	// timelines).
	if !ctl.Monsoon().Powered() {
		ctl.PowerMonitor()
	}
	if err := ctl.SetVoltage(spec.VoltageV); err != nil {
		return fail(err)
	}
	abortArm, err := ctl.ArmMonitor(spec.Device, spec.SampleRate, s.armed)
	if err != nil {
		return fail(err)
	}
	s.mu.Lock()
	s.abortArm = abortArm
	s.mu.Unlock()
	// Watch ctx on the real clock only: there timers fire on their own
	// goroutines, so an async cancel is both needed and safe. Under a
	// Virtual clock all progress happens inside Wait's drive loop, which
	// checks ctx itself — an async watcher would run teardown
	// concurrently with timer callbacks and break the single-driver
	// determinism model.
	if _, virtual := p.clock.(*simclock.Virtual); !virtual && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.cancelWith(context.Cause(ctx))
			case <-s.done:
			}
		}()
	}
	return s, nil
}
