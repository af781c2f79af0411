package batterylab

import (
	"testing"
	"time"
)

func TestManualAssembly(t *testing.T) {
	// The long-hand version of NewDeployment, exercising the individual
	// constructors a multi-vantage-point federation uses.
	clock := VirtualClock()
	plat, err := NewPlatform(clock, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(clock, ControllerConfig{Name: "node9", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(clock, DeviceConfig{Seed: 5, Serial: "CUSTOM01"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(dev); err != nil {
		t.Fatal(err)
	}
	fqdn, err := plat.Join(ctl, "203.0.113.9:2222")
	if err != nil {
		t.Fatal(err)
	}
	if fqdn != "node9.batterylab.dev" {
		t.Fatalf("fqdn = %s", fqdn)
	}
	// Install a browser via the facade helper and measure.
	prof, _ := FindBrowserProfile("Edge")
	if err := dev.Install(NewBrowser(prof, ctl)); err != nil {
		t.Fatal(err)
	}
	res := measure(t, plat, ExperimentSpecV1{
		Node: "node9", Device: "CUSTOM01",
		Monitor: MonitorSpec{SampleRateHz: 100},
		Workload: WorkloadSpec{Name: "browser", Params: Params{
			"browser": prof.Name, "pages": 1, "scrolls": 2,
		}},
	})
	if res.EnergyMAH <= 0 {
		t.Fatal("no energy")
	}
}

func TestVideoPlayerViaFacade(t *testing.T) {
	clock := VirtualClock()
	dep, err := NewDeployment(clock, DeploymentConfig{
		Seed: 6, SkipBrowsers: true, VideoPath: "/sdcard/clip.mp4",
	})
	if err != nil {
		t.Fatal(err)
	}
	res := measure(t, dep.Platform, ExperimentSpecV1{
		Node: dep.NodeName, Device: dep.DeviceSerial,
		Monitor:  MonitorSpec{SampleRateHz: 200},
		Workload: WorkloadSpec{Name: "video", Params: Params{"duration_ms": 20000}},
	})
	med, _ := res.Current.CDF()
	if m := med.Median(); m < 130 || m > 200 {
		t.Fatalf("video median = %.1f", m)
	}
}

func TestMirrorSessionViaFacade(t *testing.T) {
	clock := VirtualClock()
	dep, err := NewDeployment(clock, DeploymentConfig{Seed: 8, SkipBrowsers: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Controller.DeviceMirroring(dep.DeviceSerial); err != nil {
		t.Fatal(err)
	}
	var sess *MirrorSession
	sess, err = dep.Controller.MirrorSession(dep.DeviceSerial)
	if err != nil || !sess.Active() {
		t.Fatalf("session: %v, active=%v", err, sess.Active())
	}
	probe := NewLatencyProbe(1, time.Millisecond)
	if s := probe.Sample(); s < 500*time.Millisecond || s > 3*time.Second {
		t.Fatalf("latency sample = %v", s)
	}
}

func TestRealClockFacade(t *testing.T) {
	c := RealClock()
	before := time.Now()
	if c.Now().Before(before.Add(-time.Minute)) {
		t.Fatal("real clock far behind")
	}
}

func TestTransportConstants(t *testing.T) {
	if TransportWiFi != 0 {
		t.Fatal("WiFi must be the zero-value default")
	}
	if TransportWiFi == TransportBluetooth || TransportBluetooth == TransportUSB {
		t.Fatal("transport constants collide")
	}
}
