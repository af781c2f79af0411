package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/automation"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

// compileRig is a one-node platform for compile tests.
func compileRig(t *testing.T) (*Platform, string) {
	t.Helper()
	clock := simclock.NewVirtual()
	p, err := NewPlatform(clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(clock, controller.Config{Name: "node1", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(clock, device.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Join(ctl, "198.51.100.7:2222"); err != nil {
		t.Fatal(err)
	}
	return p, dev.Serial()
}

func TestCompileExperimentErrors(t *testing.T) {
	p, serial := compileRig(t)
	base := func() api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: "node1", Device: serial,
			Workload: api.WorkloadSpec{Name: "idle"},
		}
	}
	cases := []struct {
		name     string
		mutate   func(*api.ExperimentSpec)
		sentinel error
	}{
		{"empty node", func(s *api.ExperimentSpec) { s.Node = "" }, accessserver.ErrInvalid},
		{"usb transport", func(s *api.ExperimentSpec) { s.Transport = api.TransportUSB }, accessserver.ErrInvalid},
		{"unknown workload", func(s *api.ExperimentSpec) { s.Workload.Name = "defrag" }, accessserver.ErrNotFound},
		{"unknown node", func(s *api.ExperimentSpec) { s.Node = "mars" }, accessserver.ErrNotFound},
		{"unknown device", func(s *api.ExperimentSpec) { s.Device = "nope" }, accessserver.ErrNotFound},
		{"unknown browser", func(s *api.ExperimentSpec) {
			s.Workload = api.WorkloadSpec{Name: "browser", Params: api.Params{"browser": "Netscape"}}
		}, accessserver.ErrInvalid},
		{"pages out of range", func(s *api.ExperimentSpec) {
			s.Workload = api.WorkloadSpec{Name: "browser", Params: api.Params{"pages": 0}}
		}, accessserver.ErrInvalid},
		{"negative idle duration", func(s *api.ExperimentSpec) {
			s.Workload.Params = api.Params{"duration_ms": -5}
		}, accessserver.ErrInvalid},
	}
	for _, c := range cases {
		spec := base()
		c.mutate(&spec)
		_, err := p.compileExperiment(spec)
		if !errors.Is(err, c.sentinel) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.sentinel)
		}
	}
	if _, err := p.compileExperiment(base()); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCompileExperimentBindsParams(t *testing.T) {
	p, serial := compileRig(t)
	spec, err := p.compileExperiment(api.ExperimentSpec{
		Node: "node1", Device: serial,
		Transport: api.TransportBluetooth,
		Monitor: api.MonitorSpec{
			SampleRateHz: 250, VoltageV: 4.0,
			CPUSamplePeriodMS: 2000, PaddingMS: 3000,
		},
		Mirroring:   true,
		VPNLocation: "Bunkyo",
		Workload: api.WorkloadSpec{
			Name:   "idle",
			Params: api.Params{"duration_ms": 42000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.SampleRate != 250 || spec.VoltageV != 4.0 || !spec.Mirroring ||
		spec.VPNLocation != "Bunkyo" || spec.Transport != TransportBluetooth ||
		spec.CPUSamplePeriod != 2*time.Second || spec.Padding != 3*time.Second {
		t.Fatalf("compiled spec = %+v", spec)
	}
	drv := automation.NewADBDriver(nil, "d")
	script := spec.Workload(drv)
	if got := script.TotalWait(); got != 42*time.Second {
		t.Fatalf("idle script wait = %v, want 42s", got)
	}
}

// TestSpecAndClosurePathsAgree: a wire spec run as a build on the
// platform's server and the same workload as a closure run directly on
// the session runner produce identical measurements.
func TestSpecAndClosurePathsAgree(t *testing.T) {
	p1, serial1 := compileRig(t)
	res1, err := startDirect(t, p1, experimentSpec{
		Node: "node1", Device: serial1, SampleRate: 1000,
		Workload: func(drv automation.Driver) *automation.Script {
			s := automation.NewScript("idle")
			s.Add("idle", 10*time.Second, nil)
			return s
		},
	}).wait(t, p1.Clock())
	if err != nil {
		t.Fatal(err)
	}

	p2, serial2 := compileRig(t)
	sess, err := p2.StartExperimentSpec(context.Background(), api.ExperimentSpec{
		Node: "node1", Device: serial2,
		Monitor:  api.MonitorSpec{SampleRateHz: 1000},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 10000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res1.EnergyMAH != res2.EnergyMAH || res1.Current.Len() != res2.Current.Len() {
		t.Fatalf("closure run (%v mAh, %d) != spec run (%v mAh, %d)",
			res1.EnergyMAH, res1.Current.Len(), res2.EnergyMAH, res2.Current.Len())
	}
}

func TestWorkloadRegistryCustom(t *testing.T) {
	p, serial := compileRig(t)
	p.Workloads().Register("blink", func(params api.Params) (func(automation.Driver) *automation.Script, error) {
		return func(automation.Driver) *automation.Script {
			s := automation.NewScript("blink")
			s.Add("blink", time.Second, nil)
			return s
		}, nil
	})
	names := p.Workloads().Names()
	found := false
	for _, n := range names {
		found = found || n == "blink"
	}
	if !found {
		t.Fatalf("custom workload missing from %v", names)
	}
	if _, err := p.compileExperiment(api.ExperimentSpec{
		Node: "node1", Device: serial,
		Workload: api.WorkloadSpec{Name: "blink"},
	}); err != nil {
		t.Fatal(err)
	}
}
