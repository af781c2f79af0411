package core

import (
	"errors"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/automation"
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

// Typed sentinel errors for spec compilation and run failures. Callers
// branch with errors.Is rather than matching message strings.
var (
	// ErrUnknownNode reports a vantage point that is not joined to the
	// platform.
	ErrUnknownNode = errors.New("core: unknown vantage point")
	// ErrUnknownDevice reports a device serial the target vantage point
	// does not host.
	ErrUnknownDevice = errors.New("core: unknown device")
	// ErrUSBTransport rejects measuring over USB: the port's
	// micro-controller activation current corrupts the measurement
	// (§3.3). Use WiFi or Bluetooth.
	ErrUSBTransport = errors.New("core: USB transport corrupts measurements; use WiFi or Bluetooth")
	// ErrNoWorkload reports a spec naming a workload the platform's
	// registry does not have.
	ErrNoWorkload = errors.New("core: unknown workload")
	// ErrCanceled reports a run ended by Cancel on its handle, build
	// cancellation, or context cancellation. Teardown still completed.
	ErrCanceled = errors.New("core: experiment canceled")
	// ErrNodeLost reports a remote run that failed because its vantage
	// point died (and the scheduler's failover budget was spent). The
	// client maps the v1 node_lost status flag onto it.
	ErrNodeLost = errors.New("core: vantage point lost")
)

// experimentSpec is a compiled wire spec: one battery measurement run
// with its workload bound to a script builder — what a build's pipeline
// body runs. compileExperiment has checked it: its node and device
// exist, its workload is set, its transport is WiFi or Bluetooth and no
// knob is negative.
type experimentSpec struct {
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

// withDefaults fills the zero-value knobs.
func (s experimentSpec) withDefaults(nominalVoltage float64) experimentSpec {
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

// start sets a measurement up on a joined vantage point and schedules
// its workload: it is a build's pipeline body (measurementJob), and spec
// comes from compileExperiment. Setup errors that can be detected
// synchronously (a node that left, VPN or transport failures) are
// returned here; later
// failures reach onDone, which, when non-nil, is invoked exactly once
// from the teardown path with the run's outcome. The run's phase events
// and live samples are posted to feed, the feed of build, on whatever
// context the run is on at the time; a post never blocks.
func (p *Platform) start(spec experimentSpec, build int, feed *feedhub.Feed, onDone func(*Result, error)) (*session, error) {
	ctl, err := p.Controller(spec.Node)
	if err != nil {
		return nil, err
	}
	dev, err := ctl.Device(spec.Device)
	if err != nil {
		return nil, err
	}
	spec = spec.withDefaults(dev.Battery().NominalVoltage())

	s := &session{
		clock:  p.clock,
		spec:   spec,
		ctl:    ctl,
		dev:    dev,
		build:  build,
		feed:   feed,
		onDone: onDone,
	}

	// 1. Network location (§4.3).
	if spec.VPNLocation != "" {
		if _, err := ctl.VPN().Connect(spec.VPNLocation); err != nil {
			return nil, err
		}
		s.vpnConnected = true
		s.postPhase(PhaseVPNUp, "", nil)
	}
	fail := func(err error) (*session, error) {
		s.teardownSetup()
		// A feed that saw this run enter phases gets the terminal event
		// too, with the setup failure attached.
		s.postPhase(PhaseDone, "", err)
		return nil, err
	}

	// 2. Automation channel (§3.3): arm the measurement-safe transport
	// while USB is still up.
	if err := s.armTransport(); err != nil {
		return fail(err)
	}
	s.postPhase(PhaseTransportArmed, "", nil)

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
		s.postPhase(PhaseMirrorOn, "", nil)
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
	return s, nil
}
