package core

import (
	"testing"
	"time"

	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/video"
)

// Multi-vantage-point tests: the platform's whole point is federating
// testbeds "as new members join over time and from different locations".

func newMultiVP(t *testing.T, n int) (*Platform, *simclock.Virtual, []*controller.Controller) {
	t.Helper()
	clk := simclock.NewVirtual()
	plat, err := NewPlatform(clk, 77)
	if err != nil {
		t.Fatal(err)
	}
	var ctls []*controller.Controller
	for i := 0; i < n; i++ {
		name := "node" + string(rune('1'+i))
		ctl, err := controller.New(clk, controller.Config{Name: name, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := device.New(clk, device.Config{
			Seed:   uint64(200 + i),
			Serial: "DEV" + name,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.AttachDevice(dev); err != nil {
			t.Fatal(err)
		}
		if _, err := plat.Join(ctl, "198.51.100."+string(rune('1'+i))+":2222"); err != nil {
			t.Fatal(err)
		}
		ctls = append(ctls, ctl)
	}
	return plat, clk, ctls
}

func TestMultiVPJoin(t *testing.T) {
	plat, _, _ := newMultiVP(t, 3)
	vps := plat.VantagePoints()
	if len(vps) != 3 {
		t.Fatalf("vps = %v", vps)
	}
	for _, name := range []string{"node1", "node2", "node3"} {
		if _, err := plat.Controller(name); err != nil {
			t.Fatal(err)
		}
		cert, err := plat.DeployedCert(name)
		if err != nil || cert == nil {
			t.Fatalf("cert for %s: %v", name, err)
		}
	}
}

func TestMultiVPIndependentExperiments(t *testing.T) {
	plat, _, ctls := newMultiVP(t, 2)
	// Push media to both devices and measure them one after the other:
	// each vantage point has its own monitor, so runs don't interfere.
	var energies []float64
	for i, ctl := range ctls {
		serial := ctl.ListDevices()[0]
		dev, _ := ctl.Device(serial)
		dev.Storage().Push("/sdcard/v.mp4", video.SampleMP4(1024))
		dev.Install(video.NewPlayer("/sdcard/v.mp4"))
		res, err := run(plat, videoSpec(ctl.Name(), serial, 20*time.Second))
		if err != nil {
			t.Fatalf("vp %d: %v", i, err)
		}
		energies = append(energies, res.EnergyMAH)
	}
	for i, e := range energies {
		if e <= 0 {
			t.Fatalf("vp %d measured no energy", i)
		}
	}
}

func TestMultiVPRenewalCoversAll(t *testing.T) {
	plat, clk, _ := newMultiVP(t, 3)
	clk.Advance(65 * 24 * time.Hour)
	if n := plat.RenewCertificates(); n != 3 {
		t.Fatalf("renewed %d, want 3", n)
	}
}

func TestMultiVPDistinctRegions(t *testing.T) {
	plat, _, ctls := newMultiVP(t, 2)
	// Tunnel only the second vantage point: regions diverge.
	ctls[1].VPN().Connect("Sao Paulo")
	if ctls[0].Region() == ctls[1].Region() {
		t.Fatal("regions should diverge")
	}
	if ctls[1].Region() != "BR" {
		t.Fatalf("region = %s", ctls[1].Region())
	}
	_ = plat
}
