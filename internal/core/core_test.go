package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/browser"
	"batterylab/internal/certs"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/video"
)

type rig struct {
	clk    *simclock.Virtual
	plat   *Platform
	ctl    *controller.Controller
	dev    *device.Device
	serial string
}

func newRig(t testing.TB) *rig {
	t.Helper()
	clk := simclock.NewVirtual()
	plat, err := NewPlatform(clk, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(clk, controller.Config{Name: "node1", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(clk, device.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.Join(ctl, "198.51.100.7:2222"); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, plat: plat, ctl: ctl, dev: dev, serial: dev.Serial()}
}

func TestJoinWorkflow(t *testing.T) {
	r := newRig(t)
	// DNS record present.
	addr, err := r.plat.Zone.Resolve("node1." + Domain)
	if err != nil || addr != "198.51.100.7:2222" {
		t.Fatalf("resolve = %q, %v", addr, err)
	}
	if got := r.plat.VantagePoints(); len(got) != 1 || got[0] != "node1."+Domain {
		t.Fatalf("vps = %v", got)
	}
	// Node registered at the access server.
	if nodes := r.plat.Access.Nodes.List(); len(nodes) != 1 || nodes[0] != "node1" {
		t.Fatalf("nodes = %v", nodes)
	}
	// Certificate deployed and valid for the node's FQDN.
	if r.ctl.CertPEM() == nil {
		t.Fatal("no certificate deployed")
	}
	err = certs.Verify(r.ctl.CertPEM(), r.plat.CA.CertPEM(), "node1."+Domain, r.clk.Now())
	if err != nil {
		t.Fatalf("deployed cert invalid: %v", err)
	}
}

func TestJoinDuplicate(t *testing.T) {
	r := newRig(t)
	ctl2, _ := controller.New(r.clk, controller.Config{Name: "node1", Seed: 2})
	if _, err := r.plat.Join(ctl2, "198.51.100.8:2222"); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestCertRenewalJob(t *testing.T) {
	r := newRig(t)
	before, _ := r.plat.DeployedCert("node1")
	// Inside validity: nothing renews.
	if n := r.plat.RenewCertificates(); n != 0 {
		t.Fatalf("renewed %d fresh certs", n)
	}
	// Advance into the renewal window (90d validity - 30d window).
	r.clk.Advance(65 * 24 * time.Hour)
	if n := r.plat.RenewCertificates(); n != 1 {
		t.Fatalf("renewed %d, want 1", n)
	}
	after, _ := r.plat.DeployedCert("node1")
	if before.Leaf.SerialNumber.Cmp(after.Leaf.SerialNumber) == 0 {
		t.Fatal("certificate not rotated")
	}
	if err := certs.Verify(r.ctl.CertPEM(), r.plat.CA.CertPEM(), "node1."+Domain, r.clk.Now()); err != nil {
		t.Fatalf("renewed cert invalid: %v", err)
	}
}

func TestMaintenanceJobs(t *testing.T) {
	r := newRig(t)
	stop := r.plat.InstallMaintenanceJobs()
	defer stop()
	// Leave the monitor on with no measurement: the safety cron powers
	// it off.
	r.ctl.PowerMonitor()
	if !r.ctl.Socket().On() {
		t.Fatal("socket should be on")
	}
	r.clk.Advance(11 * time.Minute)
	if r.ctl.Socket().On() {
		t.Fatal("safety cron left the monitor on")
	}
	if r.plat.Access.CronRuns("monsoon-safety") == 0 {
		t.Fatal("safety cron never ran")
	}
}

// videoRig is a rig with the sample video installed.
func videoRig(t *testing.T) *rig {
	r := newRig(t)
	r.dev.Storage().Push("/sdcard/video.mp4", video.SampleMP4(1<<20))
	r.dev.Install(video.NewPlayer("/sdcard/video.mp4"))
	return r
}

func TestRunExperimentVideo(t *testing.T) {
	r := videoRig(t)
	spec := videoSpec("node1", r.serial, 30*time.Second)
	spec.Monitor.SampleRateHz = 500
	res, err := run(r.plat, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current.Len() < 10_000 {
		t.Fatalf("current samples = %d", res.Current.Len())
	}
	med, _ := res.Current.CDF()
	// Video playback without mirroring: median around 160 mA (Fig. 2).
	if m := med.Median(); m < 135 || m > 190 {
		t.Fatalf("median current = %.1f mA, want ~160", m)
	}
	if res.EnergyMAH <= 0 {
		t.Fatal("no energy measured")
	}
	if res.DeviceCPU.Len() == 0 || res.ControllerCPU.Len() == 0 {
		t.Fatal("missing CPU traces")
	}
	if res.MirrorUploadBytes != 0 {
		t.Fatal("mirror bytes without mirroring")
	}
	// The monitor is released for the next experimenter.
	if r.ctl.Measuring() != "" {
		t.Fatal("monitor still held")
	}
}

func TestRunExperimentMirroringRaisesCurrent(t *testing.T) {
	r := videoRig(t)
	spec := videoSpec("node1", r.serial, 60*time.Second)
	plain, err := run(r.plat, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mirroring = true
	mirrored, err := run(r.plat, spec)
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := plain.Current.CDF()
	mm, _ := mirrored.Current.CDF()
	gap := mm.Median() - pm.Median()
	// Fig. 2: mirroring lifts the median from ~160 to ~220 mA.
	if gap < 30 || gap > 100 {
		t.Fatalf("mirroring gap = %.1f mA, want ~60", gap)
	}
	if mirrored.MirrorUploadBytes == 0 {
		t.Fatal("no mirror upload accounted")
	}
}

func TestRunExperimentRejectsUSB(t *testing.T) {
	r := newRig(t)
	spec := idleSpec(r, time.Second)
	spec.Transport = api.TransportUSB
	_, err := r.plat.StartExperimentSpec(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "USB") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunExperimentVPN(t *testing.T) {
	r := newRig(t)
	prof, _ := browser.FindProfile("Chrome")
	b := browser.New(prof, r.ctl.AP(), func() string { return r.ctl.Region() })
	r.dev.Install(b)

	res, err := run(r.plat, api.ExperimentSpec{
		Node: "node1", Device: r.serial, VPNLocation: "Bunkyo",
		Monitor:  api.MonitorSpec{SampleRateHz: 100},
		Workload: api.WorkloadSpec{Name: "browser", Params: api.Params{"browser": "Chrome", "pages": 2, "scrolls": 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyMAH <= 0 {
		t.Fatal("no energy")
	}
	// Tunnel torn down after the run.
	if r.ctl.VPN().Active() != nil {
		t.Fatal("VPN left connected")
	}
}

func TestRunExperimentWorkloadError(t *testing.T) {
	r := newRig(t)
	// The rig has no browsers installed: launching one fails mid-run.
	_, err := run(r.plat, api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Workload: api.WorkloadSpec{Name: "browser", Params: api.Params{"pages": 1}},
	})
	if err == nil {
		t.Fatal("workload error swallowed")
	}
	// Monitor released even on failure.
	if r.ctl.Measuring() != "" {
		t.Fatal("monitor leaked after failure")
	}
}

func TestRunExperimentValidation(t *testing.T) {
	r := newRig(t)
	spec := idleSpec(r, time.Second)
	spec.Workload = api.WorkloadSpec{}
	if _, err := r.plat.StartExperimentSpec(context.Background(), spec); err == nil {
		t.Fatal("missing workload accepted")
	}
	spec = idleSpec(r, time.Second)
	spec.Node = "nowhere"
	if _, err := r.plat.StartExperimentSpec(context.Background(), spec); err == nil {
		t.Fatal("unknown node accepted")
	}
	spec.Node, spec.Device = "node1", "nodevice"
	if _, err := r.plat.StartExperimentSpec(context.Background(), spec); err == nil {
		t.Fatal("unknown device accepted")
	}
}
