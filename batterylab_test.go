package batterylab

import (
	"context"
	"testing"
	"time"
)

// measure runs one wire spec on the platform and waits for its result.
func measure(t *testing.T, p *Platform, spec ExperimentSpecV1) *Result {
	t.Helper()
	x, err := p.StartExperimentSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeploymentQuickstart(t *testing.T) {
	clock := VirtualClock()
	dep, err := NewDeployment(clock, DeploymentConfig{Seed: 7, VideoPath: "/sdcard/v.mp4"})
	if err != nil {
		t.Fatal(err)
	}
	if dep.FQDN != "node1.batterylab.dev" {
		t.Fatalf("fqdn = %s", dep.FQDN)
	}
	res := measure(t, dep.Platform, ExperimentSpecV1{
		Node:    dep.NodeName,
		Device:  dep.DeviceSerial,
		Monitor: MonitorSpec{SampleRateHz: 100},
		Workload: WorkloadSpec{Name: "browser", Params: Params{
			"browser": "Brave", "pages": 2, "scrolls": 2,
		}},
	})
	if res.EnergyMAH <= 0 {
		t.Fatal("no energy measured")
	}
	if res.Duration < 20*time.Second {
		t.Fatalf("duration = %v", res.Duration)
	}
}

func TestDeploymentSkipBrowsers(t *testing.T) {
	clock := VirtualClock()
	dep, err := NewDeployment(clock, DeploymentConfig{Seed: 7, SkipBrowsers: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dep.Device.Packages()); n != 0 {
		t.Fatalf("packages = %d, want 0", n)
	}
}

func TestFacadeCatalogues(t *testing.T) {
	if len(BrowserProfiles()) != 4 {
		t.Fatal("browser profiles")
	}
	if len(VPNExits()) != 5 {
		t.Fatal("vpn exits")
	}
	if len(NewsSites()) != 10 {
		t.Fatal("news sites")
	}
	if len(SampleMP4(100)) != 100 {
		t.Fatal("sample mp4")
	}
	if _, err := FindBrowserProfile("IE6"); err == nil {
		t.Fatal("IE6 found")
	}
}

func TestRunForAdvancesVirtual(t *testing.T) {
	clock := VirtualClock()
	dep, err := NewDeployment(clock, DeploymentConfig{SkipBrowsers: true})
	if err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	dep.RunFor(time.Minute)
	if clock.Now().Sub(before) != time.Minute {
		t.Fatal("RunFor did not advance")
	}
}
