// Package batterylab is the public API of the BatteryLab platform — a
// distributed power monitoring platform for mobile devices (Varvello et
// al., HotNets 2019), reproduced as a Go library with every hardware
// dependency (Monsoon power monitor, relay circuit switch, Android test
// devices, Raspberry Pi controller, Meross socket, ProtonVPN tunnels)
// simulated faithfully.
//
// The typical flow mirrors the paper's architecture: every measurement
// is a job on the access server (§3.1). An experiment is a declarative
// ExperimentSpecV1 — node, device, a workload named from the platform's
// registry ("browser", "video", "idle") with its parameters, monitor
// settings — and StartExperimentSpec submits it to the platform's own
// access server, which queues it until the vantage point is free. The
// returned handle has Wait, Cancel, Done, Phase and Build; observers
// receive phase transitions and live samples from the build's feed.
// Both are context-aware: cancelling tears the VPN, mirroring session
// and monitor down cleanly.
//
//	clock := batterylab.VirtualClock()                  // or RealClock()
//	dep, _ := batterylab.NewDeployment(clock, batterylab.DeploymentConfig{Seed: 1})
//	x, _ := dep.Platform.StartExperimentSpec(ctx, batterylab.ExperimentSpecV1{
//	    Node:      dep.NodeName,
//	    Device:    dep.DeviceSerial,
//	    Mirroring: true,
//	    Workload: batterylab.WorkloadSpec{Name: "browser",
//	        Params: batterylab.Params{"browser": "Brave", "pages": 3}},
//	}, batterylab.ObserverFuncs{
//	    Phase: func(e batterylab.PhaseChange) { fmt.Println(e.Phase) },
//	})
//	res, _ := x.Wait(ctx) // or x.Cancel()
//	fmt.Println(res.EnergyMAH)
//
// Measurement campaigns — many specs across many vantage points — are
// first-class: StartCampaignSpec queues a declarative CampaignSpecV1 on
// the platform's own access server, which runs it concurrently across
// nodes (serialized per node, since one Monsoon measures one run at a
// time) and is readable over the v1 API like any campaign:
//
//	cs, _ := dep.Platform.StartCampaignSpec(ctx, batterylab.CampaignSpecV1{Experiments: specs})
//	runs, _ := cs.Wait(ctx)
//
// The v1 remote execution API makes the platform location-transparent:
// the same ExperimentSpecV1 runs through the same Backend interface, and
// returns the same handle, whether the hardware is in-process or behind
// an access server's HTTP API, so its result is decoded from the same
// build artifacts (see backend.go, internal/api for the wire schema, and
// ExampleRemoteBackend):
//
//	backend, _ := batterylab.RemoteBackend("http://lab:9090", token)
//	sess, _ := backend.StartExperimentSpec(ctx, batterylab.ExperimentSpecV1{
//	    Node: "node1", Device: serial,
//	    Workload: batterylab.WorkloadSpec{Name: "browser",
//	        Params: batterylab.Params{"browser": "Brave", "pages": 3}},
//	})
//	res, _ := sess.Wait(ctx) // phase events + live samples streamed
//
// A Deployment is one vantage point (controller + device + monitor)
// joined to a platform (access server + DNS + CA) — the paper's Imperial
// College setup. Multi-vantage-point federations are built by creating
// controllers with NewController and joining them via Platform.Join.
package batterylab

import (
	"fmt"
	"time"

	"batterylab/internal/browser"
	"batterylab/internal/controller"
	"batterylab/internal/core"
	"batterylab/internal/device"
	"batterylab/internal/mirror"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
	"batterylab/internal/video"
	"batterylab/internal/vpn"
)

// Re-exported platform types. The internal packages carry the full
// documentation.
type (
	// Platform is a BatteryLab deployment: access server, DNS zone,
	// certificate authority and joined vantage points.
	Platform = core.Platform
	// Result carries an experiment's traces and energy figure.
	Result = core.Result
	// Transport selects the measurement-time automation channel.
	Transport = core.Transport

	// CampaignRun is one experiment's outcome within a campaign, local
	// or remote.
	CampaignRun = core.CampaignRun
	// Observer receives a session's phase transitions and live samples.
	Observer = core.Observer
	// ObserverFuncs adapts plain functions to Observer.
	ObserverFuncs = core.ObserverFuncs
	// PhaseChange is one phase-transition event.
	PhaseChange = core.PhaseChange
	// Sample is one live current reading.
	Sample = core.Sample
	// LiveSummary is the streaming summary of a capture in flight
	// (sample count, running mean, P50/P95 estimates, charge integral),
	// carried on every Sample.
	LiveSummary = samples.LiveSummary
	// Phase is where a running experiment currently is.
	Phase = core.Phase

	// Controller is a vantage point controller.
	Controller = controller.Controller
	// ControllerConfig describes a vantage point.
	ControllerConfig = controller.Config
	// Device is a simulated Android test device.
	Device = device.Device
	// DeviceConfig describes a test device.
	DeviceConfig = device.Config

	// Clock abstracts time; experiments run on a virtual clock.
	Clock = simclock.Clock

	// BrowserProfile is one of the study browsers' calibrated models.
	BrowserProfile = browser.Profile
	// Browser is an installed browser app instance.
	Browser = browser.Browser

	// VPNExit is one ProtonVPN egress location.
	VPNExit = vpn.Exit
	// SpeedtestResult is one row of the paper's Table 2.
	SpeedtestResult = vpn.SpeedtestResult

	// MirrorSession is a device-mirroring session (scrcpy-like agent +
	// VNC server + noVNC GUI backend).
	MirrorSession = mirror.Session
	// LatencyProbe models the click-to-photon mirroring latency
	// measurement of §4.2.
	LatencyProbe = mirror.LatencyProbe
)

// NewLatencyProbe builds a mirroring latency probe for a client at the
// given network RTT from the vantage point.
func NewLatencyProbe(seed uint64, networkRTT time.Duration) *LatencyProbe {
	return mirror.NewLatencyProbe(seed, networkRTT)
}

// Measurement-time transports.
const (
	TransportWiFi      = core.TransportWiFi
	TransportBluetooth = core.TransportBluetooth
	TransportUSB       = core.TransportUSB
)

// Experiment phases, in execution order.
const (
	PhasePending        = core.PhasePending
	PhaseVPNUp          = core.PhaseVPNUp
	PhaseTransportArmed = core.PhaseTransportArmed
	PhaseMirrorOn       = core.PhaseMirrorOn
	PhaseMonitorArmed   = core.PhaseMonitorArmed
	PhaseWorkload       = core.PhaseWorkload
	PhaseSettle         = core.PhaseSettle
	PhaseDone           = core.PhaseDone
)

// Typed sentinel errors of the experiment API; test with errors.Is. A
// spec StartExperimentSpec cannot compile wraps one of the first four.
var (
	ErrUnknownNode   = core.ErrUnknownNode
	ErrUnknownDevice = core.ErrUnknownDevice
	ErrUSBTransport  = core.ErrUSBTransport
	ErrNoWorkload    = core.ErrNoWorkload
	ErrCanceled      = core.ErrCanceled
	// ErrNodeLost reports a remote run failed by vantage-point loss
	// after the scheduler's failover budget was spent.
	ErrNodeLost = core.ErrNodeLost
)

// VirtualClock returns a deterministic simulated clock starting at the
// platform epoch: experiments over minutes of simulated time finish in
// milliseconds.
func VirtualClock() *simclock.Virtual { return simclock.NewVirtual() }

// RealClock returns the wall clock, for running daemons.
func RealClock() Clock { return simclock.Real() }

// NewPlatform assembles an empty platform (access server, DNS zone,
// certificate authority).
func NewPlatform(clock Clock, seed uint64) (*Platform, error) {
	return core.NewPlatform(clock, seed)
}

// NewController assembles a vantage point controller.
func NewController(clock Clock, cfg ControllerConfig) (*Controller, error) {
	return controller.New(clock, cfg)
}

// NewDevice builds a test device (defaults: a Samsung J7 Duo running
// Android 8.0 with a 3000 mAh battery).
func NewDevice(clock Clock, cfg DeviceConfig) (*Device, error) {
	return device.New(clock, cfg)
}

// BrowserProfiles returns the four §4.2 study browsers: Brave, Chrome,
// Edge, Firefox.
func BrowserProfiles() []BrowserProfile { return browser.Profiles() }

// FindBrowserProfile looks a study browser up by name.
func FindBrowserProfile(name string) (BrowserProfile, error) {
	return browser.FindProfile(name)
}

// NewBrowser instantiates a browser app for installation on a device.
// The controller's AP is the browser's network; region follows the
// controller's VPN state.
func NewBrowser(prof BrowserProfile, ctl *Controller) *Browser {
	return browser.New(prof, ctl.AP(), func() string { return ctl.Region() })
}

// NewsSites returns the workload's 10 news pages.
func NewsSites() []string { return browser.NewsSites() }

// VideoPlayerPackage is the bundled mp4 player's package name.
const VideoPlayerPackage = video.PackageName

// NewVideoPlayer builds the mp4 playback app used by the accuracy
// evaluation; path is the media's sdcard location.
func NewVideoPlayer(path string) *video.Player { return video.NewPlayer(path) }

// SampleMP4 generates placeholder mp4 bytes for pushing to a device.
func SampleMP4(n int) []byte { return video.SampleMP4(n) }

// VPNExits returns the five ProtonVPN locations of §4.3.
func VPNExits() []VPNExit { return vpn.Exits() }

// DeploymentConfig tunes NewDeployment.
type DeploymentConfig struct {
	// Seed drives every stochastic model (default 2019).
	Seed uint64
	// NodeName is the vantage point identifier (default "node1").
	NodeName string
	// InstallBrowsers installs the four study browsers (default true —
	// set SkipBrowsers to opt out).
	SkipBrowsers bool
	// VideoPath, when non-empty, pushes a sample mp4 there and installs
	// the player.
	VideoPath string
}

// Deployment is a ready-to-measure single-vantage-point platform: the
// paper's first deployment (one Monsoon, one J7 Duo, one Pi).
type Deployment struct {
	Platform     *Platform
	Controller   *Controller
	Device       *Device
	NodeName     string
	DeviceSerial string
	FQDN         string

	clock Clock
}

// VantagePointConfig tunes NewVantagePoint.
type VantagePointConfig struct {
	// Name is the vantage point identifier (required).
	Name string
	// Seed drives the controller's and device's stochastic models.
	Seed uint64
	// Addr is the DNS registration address (default a documentation
	// address).
	Addr string
	// SkipBrowsers leaves the four study browsers uninstalled.
	SkipBrowsers bool
	// VideoPath, when non-empty, pushes a sample mp4 there and installs
	// the player.
	VideoPath string
}

// NewVantagePoint assembles one simulated vantage point — controller,
// test device, installed study apps — and joins it to the platform via
// the §3.4 workflow. It is the shared node-assembly path behind
// NewDeployment and multi-node daemons/tests (blab-access -sim).
func NewVantagePoint(clock Clock, p *Platform, cfg VantagePointConfig) (*Controller, *Device, string, error) {
	if cfg.Name == "" {
		return nil, nil, "", fmt.Errorf("batterylab: vantage point needs a name")
	}
	if cfg.Addr == "" {
		cfg.Addr = "198.51.100.7:2222"
	}
	ctl, err := controller.New(clock, controller.Config{Name: cfg.Name, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, "", err
	}
	dev, err := device.New(clock, device.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, nil, "", err
	}
	if err := ctl.AttachDevice(dev); err != nil {
		return nil, nil, "", err
	}
	fqdn, err := p.Join(ctl, cfg.Addr)
	if err != nil {
		return nil, nil, "", err
	}
	if !cfg.SkipBrowsers {
		for _, prof := range browser.Profiles() {
			if err := dev.Install(NewBrowser(prof, ctl)); err != nil {
				return nil, nil, "", err
			}
		}
	}
	if cfg.VideoPath != "" {
		if err := dev.Storage().Push(cfg.VideoPath, video.SampleMP4(4<<20)); err != nil {
			return nil, nil, "", err
		}
		if err := dev.Install(video.NewPlayer(cfg.VideoPath)); err != nil {
			return nil, nil, "", err
		}
	}
	return ctl, dev, fqdn, nil
}

// NewDeployment assembles and joins a complete vantage point.
func NewDeployment(clock Clock, cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 2019
	}
	if cfg.NodeName == "" {
		cfg.NodeName = "node1"
	}
	plat, err := core.NewPlatform(clock, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ctl, dev, fqdn, err := NewVantagePoint(clock, plat, VantagePointConfig{
		Name:         cfg.NodeName,
		Seed:         cfg.Seed,
		SkipBrowsers: cfg.SkipBrowsers,
		VideoPath:    cfg.VideoPath,
	})
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Platform:     plat,
		Controller:   ctl,
		Device:       dev,
		NodeName:     cfg.NodeName,
		DeviceSerial: dev.Serial(),
		FQDN:         fqdn,
		clock:        clock,
	}, nil
}

// RunFor lets dur of deployment time pass: on a virtual clock it
// advances the simulation; on the real clock it sleeps.
func (d *Deployment) RunFor(dur time.Duration) { d.clock.Sleep(dur) }
