package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/automation"
	"batterylab/internal/browser"
	"batterylab/internal/video"
)

// This file turns declarative wire specs (internal/api) into runnable
// compiled specs. The bridge is the workload registry: a
// remote client cannot ship a Go closure, so it names a workload the
// server has vetted and parameterizes it. The platform implements
// accessserver.SpecBackend on top, which is how POST /api/v1/experiments
// reaches the experiment runner.

// WorkloadBuilder constructs a workload's automation-script factory
// from its wire parameters. Parameter errors should be returned (not
// deferred to run time) so submissions fail fast with a 400.
type WorkloadBuilder func(params api.Params) (func(automation.Driver) *automation.Script, error)

// WorkloadRegistry is the named-workload table the v1 API compiles
// against. It ships with the builtins ("browser", "video", "idle") and
// accepts deployment-specific additions via Register.
type WorkloadRegistry struct {
	mu sync.RWMutex
	m  map[string]WorkloadBuilder
}

// NewWorkloadRegistry returns a registry preloaded with the builtin
// workloads.
func NewWorkloadRegistry() *WorkloadRegistry {
	r := &WorkloadRegistry{m: make(map[string]WorkloadBuilder)}
	r.Register("browser", buildBrowserWorkload)
	r.Register("video", buildVideoWorkload)
	r.Register("idle", buildIdleWorkload)
	return r
}

// Register adds (or replaces) a named workload.
func (r *WorkloadRegistry) Register(name string, b WorkloadBuilder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = b
}

// Names lists the registered workloads, sorted.
func (r *WorkloadRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a builder.
func (r *WorkloadRegistry) lookup(name string) (WorkloadBuilder, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.m[name]
	return b, ok
}

// buildBrowserWorkload is the §4.2 page-visit workload. Params:
//
//	browser        study browser name (default "Brave")
//	pages          page count 1-10 from the news set, OR
//	page_list      explicit []string of pages (overrides pages)
//	scrolls        scrolls per page (default 8)
//	dwell_ms       per-page dwell (default 6000)
//	scroll_gap_ms  pause between scrolls (default 2000)
func buildBrowserWorkload(params api.Params) (func(automation.Driver) *automation.Script, error) {
	prof, err := browser.FindProfile(params.String("browser", "Brave"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", accessserver.ErrInvalid, err)
	}
	pages := params.StringSlice("page_list")
	if pages == nil {
		n := params.Int("pages", 10)
		all := browser.NewsSites()
		if n < 1 || n > len(all) {
			return nil, fmt.Errorf("%w: pages must be 1-%d, got %d", accessserver.ErrInvalid, len(all), n)
		}
		pages = all[:n]
	}
	opts := browser.WorkloadOptions{
		Pages:     pages,
		Scrolls:   params.Int("scrolls", 0),
		DwellTime: params.DurationMS("dwell_ms", 0),
		ScrollGap: params.DurationMS("scroll_gap_ms", 0),
	}
	pkg := prof.Package
	return func(drv automation.Driver) *automation.Script {
		return browser.BuildWorkload(drv, pkg, opts)
	}, nil
}

// buildVideoWorkload is the §4.1 mp4 playback workload. Params:
//
//	duration_ms  playback window (default 5 min)
func buildVideoWorkload(params api.Params) (func(automation.Driver) *automation.Script, error) {
	dur := params.DurationMS("duration_ms", 5*time.Minute)
	if dur <= 0 {
		return nil, fmt.Errorf("%w: duration_ms must be positive", accessserver.ErrInvalid)
	}
	return func(drv automation.Driver) *automation.Script {
		s := automation.NewScript("video")
		s.Add("launch", dur, func() error {
			_, err := drv.LaunchApp(video.PackageName)
			return err
		})
		return s
	}, nil
}

// buildIdleWorkload measures the device at rest. Params:
//
//	duration_ms  idle window (default 60 s)
func buildIdleWorkload(params api.Params) (func(automation.Driver) *automation.Script, error) {
	dur := params.DurationMS("duration_ms", time.Minute)
	if dur <= 0 {
		return nil, fmt.Errorf("%w: duration_ms must be positive", accessserver.ErrInvalid)
	}
	return func(automation.Driver) *automation.Script {
		s := automation.NewScript("idle")
		s.Add("idle", dur, nil)
		return s
	}, nil
}

// Workloads returns the platform's workload registry, for
// deployment-specific additions.
func (p *Platform) Workloads() *WorkloadRegistry { return p.workloads }

// compileExperiment turns a declarative wire spec into a runnable
// experimentSpec: wire validation, transport parsing, workload lookup
// and parameter binding, plus node/device existence checks so a bad
// submission fails at the API boundary instead of inside the build
// queue. Errors wrap the accessserver sentinels for HTTP mapping and,
// for USB or an unknown workload, node or device, this package's
// sentinels.
func (p *Platform) compileExperiment(ws api.ExperimentSpec) (experimentSpec, error) {
	var zero experimentSpec
	if err := ws.Validate(); err != nil {
		return zero, fmt.Errorf("%w: %v", accessserver.ErrInvalid, err)
	}
	var transport Transport
	switch ws.Transport {
	case "", api.TransportWiFi:
		transport = TransportWiFi
	case api.TransportBluetooth:
		transport = TransportBluetooth
	case api.TransportUSB:
		return zero, fmt.Errorf("%w: %w", accessserver.ErrInvalid, ErrUSBTransport)
	}
	builder, ok := p.workloads.lookup(ws.Workload.Name)
	if !ok {
		return zero, fmt.Errorf("%w: %w %q (have %v)",
			accessserver.ErrNotFound, ErrNoWorkload, ws.Workload.Name, p.workloads.Names())
	}
	workload, err := builder(ws.Workload.Params)
	if err != nil {
		return zero, fmt.Errorf("workload %q: %w", ws.Workload.Name, err)
	}
	ctl, err := p.Controller(ws.Node)
	if err != nil {
		return zero, fmt.Errorf("%w: %w", accessserver.ErrNotFound, err)
	}
	if _, err := ctl.Device(ws.Device); err != nil {
		return zero, fmt.Errorf("%w: %w: node %q has no device %q",
			accessserver.ErrNotFound, ErrUnknownDevice, ws.Node, ws.Device)
	}
	return experimentSpec{
		Node:            ws.Node,
		Device:          ws.Device,
		SampleRate:      ws.Monitor.SampleRateHz,
		VoltageV:        ws.Monitor.VoltageV,
		Mirroring:       ws.Mirroring,
		VPNLocation:     ws.VPNLocation,
		Transport:       transport,
		Workload:        workload,
		CPUSamplePeriod: time.Duration(ws.Monitor.CPUSamplePeriodMS) * time.Millisecond,
		Padding:         time.Duration(ws.Monitor.PaddingMS) * time.Millisecond,
	}, nil
}

// specBackend implements accessserver.SpecBackend over the platform.
type specBackend struct{ p *Platform }

// Compile implements accessserver.SpecBackend.
func (b specBackend) Compile(ws api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	spec, err := b.p.compileExperiment(ws)
	if err != nil {
		return accessserver.Constraints{}, nil, err
	}
	cons := accessserver.Constraints{
		Node:          spec.Node,
		Device:        spec.Device,
		RequireLowCPU: ws.Constraints.RequireLowCPU,
		Fallback:      ws.Constraints.AllowFallback,
		// Every measurement arms the vantage point's one power monitor.
		WholeNode: true,
	}
	return cons, b.p.measurementJob(spec), nil
}

// WorkloadNames implements accessserver.SpecBackend.
func (b specBackend) WorkloadNames() []string { return b.p.workloads.Names() }
