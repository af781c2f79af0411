// Package experiments reproduces the paper's evaluation (§4): every
// figure and table has a function that builds a fresh simulated
// deployment, runs the corresponding workload, and returns the same rows
// or series the paper reports. The bench harness (bench_test.go,
// cmd/blab-bench) prints these.
package experiments

import (
	"context"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/browser"
	"batterylab/internal/controller"
	"batterylab/internal/core"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/video"
)

// VideoPath is where the Fig. 2 workload's media lives on the sdcard.
const VideoPath = "/sdcard/blab-accuracy.mp4"

// Env is a fresh single-vantage-point deployment on a virtual clock —
// the paper's Imperial College setup: one Monsoon, one Samsung J7 Duo,
// one Raspberry Pi, one Meross socket.
type Env struct {
	Clk    *simclock.Virtual
	Plat   *core.Platform
	Ctl    *controller.Controller
	Dev    *device.Device
	Serial string

	browsers map[string]*browser.Browser
}

// NewEnv builds the deployment: platform joined by one vantage point
// hosting one device with the four study browsers and the video player
// installed.
func NewEnv(seed uint64) (*Env, error) {
	clk := simclock.NewVirtual()
	plat, err := core.NewPlatform(clk, seed)
	if err != nil {
		return nil, err
	}
	ctl, err := controller.New(clk, controller.Config{Name: "node1", Seed: seed})
	if err != nil {
		return nil, err
	}
	dev, err := device.New(clk, device.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := ctl.AttachDevice(dev); err != nil {
		return nil, err
	}
	if _, err := plat.Join(ctl, "198.51.100.7:2222"); err != nil {
		return nil, err
	}

	env := &Env{
		Clk: clk, Plat: plat, Ctl: ctl, Dev: dev, Serial: dev.Serial(),
		browsers: make(map[string]*browser.Browser),
	}
	for _, prof := range browser.Profiles() {
		b := browser.New(prof, ctl.AP(), func() string { return ctl.Region() })
		if err := dev.Install(b); err != nil {
			return nil, err
		}
		env.browsers[prof.Name] = b
	}
	if err := dev.Storage().Push(VideoPath, video.SampleMP4(4<<20)); err != nil {
		return nil, err
	}
	if err := dev.Install(video.NewPlayer(VideoPath)); err != nil {
		return nil, err
	}
	return env, nil
}

// BrowserNames lists the study browsers in the paper's order.
func BrowserNames() []string { return []string{"Brave", "Chrome", "Edge", "Firefox"} }

// Options tunes experiment scale. Zero values select the paper's
// parameters; tests shrink them to stay fast.
type Options struct {
	// Seed drives the whole deployment.
	Seed uint64
	// Repetitions per configuration (paper: 5).
	Repetitions int
	// Pages per browser run (paper: 10 news sites).
	Pages int
	// Scrolls per page (paper: "multiple"; default 8).
	Scrolls int
	// SampleRate for the monitor (default 250 Hz for sweeps; the
	// hardware tops at 5 kHz).
	SampleRate int
	// VideoDuration for the accuracy experiment (paper: 5 minutes).
	VideoDuration time.Duration
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2019
	}
	if o.Repetitions == 0 {
		o.Repetitions = 5
	}
	if o.Pages == 0 {
		o.Pages = 10
	}
	if o.Scrolls == 0 {
		o.Scrolls = 8
	}
	if o.SampleRate == 0 {
		o.SampleRate = 250
	}
	if o.VideoDuration == 0 {
		o.VideoDuration = 5 * time.Minute
	}
	return o
}

// browserSpec is one run of the registry's §4.2 page-visit workload
// at the options' scale, as a wire spec.
func (o Options) browserSpec(node, device, browser string) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: device,
		Monitor: api.MonitorSpec{SampleRateHz: o.SampleRate},
		Workload: api.WorkloadSpec{Name: "browser", Params: api.Params{
			"browser": browser, "pages": o.Pages, "scrolls": o.Scrolls,
		}},
	}
}

// run measures one wire spec on the deployment: a build on its
// platform's access server.
func (e *Env) run(spec api.ExperimentSpec) (*core.Result, error) {
	x, err := e.Plat.StartExperimentSpec(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return x.Wait(context.Background())
}
