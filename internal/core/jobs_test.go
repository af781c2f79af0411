package core

import (
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/browser"
	"batterylab/internal/device"
	"batterylab/internal/trace"
)

func browserSpec(r *rig, name string, pages int) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Monitor: api.MonitorSpec{SampleRateHz: 200},
		Workload: api.WorkloadSpec{
			Name:   "browser",
			Params: api.Params{"browser": name, "pages": pages, "scrolls": 2},
		},
	}
}

func installStudyBrowsers(t *testing.T, r *rig) {
	t.Helper()
	for _, prof := range browser.Profiles() {
		b := browser.New(prof, r.ctl.AP(), func() string { return r.ctl.Region() })
		if err := r.dev.Install(b); err != nil {
			t.Fatal(err)
		}
	}
}

// runWhile runs the clock instant by instant while busy holds, failing
// if it stalls or passes budget of simulated time first.
func (r *rig) runWhile(t *testing.T, busy func() bool, budget time.Duration) {
	t.Helper()
	limit := r.clk.Now().Add(budget)
	if err := r.clk.RunWhile(busy, func() time.Time { return limit }); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitExperimentThroughQueue(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	admin, err := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.plat.SubmitExperiment(admin, "brave-study", browserSpec(r, "Brave", 2))
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("admin submission should queue immediately")
	}
	// The build runs asynchronously on clock callbacks; drive time.
	r.runWhile(t, func() bool { return b.State() == accessserver.StateRunning }, 10*time.Minute)
	if b.State() != accessserver.StateSuccess {
		t.Fatalf("state = %v err = %v log:\n%s", b.State(), b.Err(), b.Log())
	}
	// Artifacts: all three traces in the workspace.
	for _, name := range []string{"current.csv", "device-cpu.csv", "controller-cpu.csv"} {
		raw, err := b.Workspace().Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		series, err := trace.ReadCSV(strings.NewReader(string(raw)), "x", "u", r.clk.Now())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if series.Len() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	if !strings.Contains(b.Log(), "measured "+r.serial) {
		t.Fatalf("log:\n%s", b.Log())
	}
	// The binary artifact round-trips to the same trace as the CSV, in
	// fewer bytes.
	rawBin, err := b.Workspace().Load("current.trace")
	if err != nil {
		t.Fatal(err)
	}
	binSeries, err := trace.DecodeBinary(rawBin)
	if err != nil {
		t.Fatal(err)
	}
	rawCSV, err := b.Workspace().Load("current.csv")
	if err != nil {
		t.Fatal(err)
	}
	csvSeries, err := trace.ReadCSV(strings.NewReader(string(rawCSV)), "current", "mA", r.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if binSeries.Len() != csvSeries.Len() || binSeries.Name() != "current" || binSeries.Unit() != "mA" {
		t.Fatalf("binary artifact: len=%d name=%q unit=%q (csv len=%d)",
			binSeries.Len(), binSeries.Name(), binSeries.Unit(), csvSeries.Len())
	}
	if len(rawBin) >= len(rawCSV) {
		t.Fatalf("binary trace %d bytes not smaller than CSV %d", len(rawBin), len(rawCSV))
	}
}

func TestSubmitExperimentNeedsApproval(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	exp, err := r.plat.Access.Users.Add("bob", accessserver.RoleExperimenter)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.plat.SubmitExperiment(exp, "bob-study", browserSpec(r, "Chrome", 1))
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatal("experimenter job ran without admin approval")
	}
	// Admin approves, experimenter submits.
	admin, _ := r.plat.Access.Users.Add("alice", accessserver.RoleAdmin)
	if err := r.plat.Access.ApproveJob(admin, "bob-study"); err != nil {
		t.Fatal(err)
	}
	b2, err := r.plat.Access.Submit(exp, "bob-study")
	if err != nil {
		t.Fatal(err)
	}
	r.runWhile(t, func() bool { return b2.State() == accessserver.StateRunning }, 10*time.Minute)
	if b2.State() != accessserver.StateSuccess {
		t.Fatalf("state = %v err = %v", b2.State(), b2.Err())
	}
}

func TestQueuedExperimentsSerializeOnDevice(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	admin, _ := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)

	b1, err := r.plat.SubmitExperiment(admin, "first", browserSpec(r, "Brave", 1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.plat.SubmitExperiment(admin, "second", browserSpec(r, "Chrome", 1))
	if err != nil {
		t.Fatal(err)
	}
	// The device lock keeps the second build queued while the first
	// owns the monitor — "one job at the time per device" (§3.1).
	if b1.State() != accessserver.StateRunning {
		t.Fatalf("b1 = %v", b1.State())
	}
	if b2.State() != accessserver.StateQueued {
		t.Fatalf("b2 = %v, want queued behind device lock", b2.State())
	}
	r.runWhile(t, func() bool { return !b2.State().Terminal() }, 30*time.Minute)
	if b1.State() != accessserver.StateSuccess || b2.State() != accessserver.StateSuccess {
		t.Fatalf("states = %v, %v (b2 err %v)", b1.State(), b2.State(), b2.Err())
	}
}

func TestMeasurementJobFailurePropagates(t *testing.T) {
	r := newRig(t)
	// No browsers installed: the workload's launch step fails, the build
	// records the failure and the monitor is released.
	admin, _ := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	b, err := r.plat.SubmitExperiment(admin, "doomed", browserSpec(r, "Brave", 1))
	if err != nil {
		t.Fatal(err)
	}
	r.runWhile(t, func() bool { return b.State() == accessserver.StateRunning }, 10*time.Minute)
	if b.State() != accessserver.StateFailure {
		t.Fatalf("state = %v", b.State())
	}
	if r.ctl.Measuring() != "" {
		t.Fatal("monitor leaked after failed build")
	}
}

// TestTwoDevicesShareOneMonitor: a vantage point has one power monitor,
// so two builds on different devices of the same controller must not run
// at once — the second waits for the node, it does not fail with the
// controller's "already measuring". A campaign over both serials of a
// two-device node (the setup of experiments/seconddevice.go) runs them
// back to back.
func TestTwoDevicesShareOneMonitor(t *testing.T) {
	r := newRig(t)
	second, err := device.New(r.clk, device.Config{Seed: 82, Serial: "J7DUO000002"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.AttachDevice(second); err != nil {
		t.Fatal(err)
	}
	admin, err := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	idle := func(serial string) api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: "node1", Device: serial,
			Monitor:  api.MonitorSpec{SampleRateHz: 200},
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 10000}},
		}
	}
	_, builds, err := r.plat.Access.SubmitCampaign(admin, api.CampaignSpec{
		Experiments: []api.ExperimentSpec{idle(r.serial), idle(second.Serial())},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, waiting := builds[0], builds[1]
	if first.State() != accessserver.StateRunning || waiting.State() != accessserver.StateQueued ||
		waiting.PendingReason() != "waiting for node1" {
		t.Fatalf("at submit: build 1 %s, build 2 %s (%q; %v): want running, and queued waiting for node1",
			first.State(), waiting.State(), waiting.PendingReason(), waiting.Err())
	}
	r.runWhile(t, func() bool { return !waiting.State().Terminal() }, 10*time.Minute)
	for _, b := range builds {
		if b.State() != accessserver.StateSuccess {
			t.Fatalf("build %d: %s (%v)", b.ID, b.State(), b.Err())
		}
	}
	if end := first.QueueTime() + first.Duration(); waiting.QueueTime() < end {
		t.Fatalf("build 2 started %s after submit, build 1 only finished at %s: the runs overlap",
			waiting.QueueTime(), end)
	}
}
