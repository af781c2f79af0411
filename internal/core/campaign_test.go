package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/automation"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/video"
)

// newCampaignRig builds a fresh platform with n vantage points, each
// hosting one device with the sample video installed — identical for
// identical seeds, the substrate for the determinism tests.
func newCampaignRig(t *testing.T, n int) (*Platform, *simclock.Virtual, []string, []string) {
	t.Helper()
	clk := simclock.NewVirtual()
	plat, err := NewPlatform(clk, 77)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, serials []string
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
		dev.Storage().Push("/sdcard/v.mp4", video.SampleMP4(1024))
		dev.Install(video.NewPlayer("/sdcard/v.mp4"))
		if _, err := plat.Join(ctl, "198.51.100."+string(rune('1'+i))+":2222"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, name)
		serials = append(serials, dev.Serial())
	}
	return plat, clk, nodes, serials
}

// videoSpec is one wire run of the registry's video workload.
func videoSpec(node, serial string, dur time.Duration) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: serial,
		Monitor:  api.MonitorSpec{SampleRateHz: 200},
		Workload: api.WorkloadSpec{Name: "video", Params: api.Params{"duration_ms": float64(dur.Milliseconds())}},
	}
}

// sixSpecs builds the acceptance-criterion batch: two vantage points ×
// three specs each, node-interleaved.
func sixSpecs(nodes, serials []string) api.CampaignSpec {
	var cs api.CampaignSpec
	for r := 0; r < 3; r++ {
		for n := 0; n < 2; n++ {
			cs.Experiments = append(cs.Experiments, videoSpec(nodes[n], serials[n], time.Duration(20+5*r)*time.Second))
		}
	}
	return cs
}

// runCampaign starts a campaign and waits for it.
func runCampaign(t *testing.T, plat *Platform, cs api.CampaignSpec, obs ...Observer) []CampaignRun {
	t.Helper()
	sess, err := plat.StartCampaignSpec(context.Background(), cs, obs...)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sess.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// get serves one GET from the platform's v1 API as an admin.
func get(t *testing.T, plat *Platform, path string) *httptest.ResponseRecorder {
	t.Helper()
	admin, err := plat.Access.Users.Lookup("viewer")
	if err != nil {
		if admin, err = plat.Access.Users.Add("viewer", accessserver.RoleAdmin); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+admin.Token)
	w := httptest.NewRecorder()
	plat.Access.Handler().ServeHTTP(w, req)
	return w
}

// getJSON serves one GET from the platform's v1 API as an admin and
// decodes its 200 body.
func getJSON(t *testing.T, plat *Platform, path string, out any) {
	t.Helper()
	w := get(t, plat, path)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignConcurrentAcrossNodesSerializedPerDevice(t *testing.T) {
	plat, clk, nodes, serials := newCampaignRig(t, 2)
	start := clk.Now()
	rec := &recorder{}
	sess, err := plat.StartCampaignSpec(context.Background(), sixSpecs(nodes, serials), rec)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sess.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("runs = %d", len(runs))
	}
	// One observer watches the whole campaign: events from interleaved
	// runs are attributable through Node/Device.
	seenNode := map[string]bool{}
	rec.mu.Lock()
	for _, e := range rec.phases {
		if e.Node == "" || e.Device == "" {
			t.Fatalf("unattributed event %+v", e)
		}
		seenNode[e.Node] = true
	}
	rec.mu.Unlock()
	if !seenNode[nodes[0]] || !seenNode[nodes[1]] {
		t.Fatalf("events seen from %v, want both nodes", seenNode)
	}
	var sequential time.Duration
	for _, run := range runs {
		if run.Err != nil {
			t.Fatalf("run %d: %v", run.Index, run.Err)
		}
		if run.Result.EnergyMAH <= 0 {
			t.Fatalf("run %d measured no energy", run.Index)
		}
		if run.Started.IsZero() || !run.Finished.After(run.Started) {
			t.Fatalf("run %d has bogus interval [%v, %v]", run.Index, run.Started, run.Finished)
		}
		sequential += run.Result.Duration
	}

	// Serialized per node: intervals on the same node never overlap.
	overlap := func(a, b CampaignRun) bool {
		return a.Started.Before(b.Finished) && b.Started.Before(a.Finished)
	}
	crossNodeOverlap := false
	for i := range runs {
		for j := i + 1; j < len(runs); j++ {
			if runs[i].Node == runs[j].Node {
				if overlap(runs[i], runs[j]) {
					t.Fatalf("runs %d and %d overlap on %s", i, j, runs[i].Node)
				}
			} else if overlap(runs[i], runs[j]) {
				crossNodeOverlap = true
			}
		}
	}
	if !crossNodeOverlap {
		t.Fatal("no cross-node concurrency observed")
	}
	// The concurrency win is real: makespan well under the sequential sum.
	makespan := clk.Now().Sub(start)
	if makespan >= sequential {
		t.Fatalf("makespan %v not better than sequential %v", makespan, sequential)
	}
	// Monitors released everywhere.
	for _, name := range nodes {
		ctl, _ := plat.Controller(name)
		if ctl.Measuring() != "" {
			t.Fatalf("%s still measuring", name)
		}
	}
	// The campaign is the access server's like any other: its members
	// are readable over the v1 API, settled, in spec order.
	var st api.CampaignStatus
	getJSON(t, plat, fmt.Sprintf("/api/v1/campaigns/%d", sess.ID), &st)
	if st.Campaign != sess.ID || len(st.Builds) != len(runs) {
		t.Fatalf("campaign status %+v, want campaign %d with %d builds", st, sess.ID, len(runs))
	}
	for i, b := range st.Builds {
		if b.ID != runs[i].Build || b.State != "success" || b.Summary == nil || b.Summary.EnergyMAH != runs[i].Result.EnergyMAH {
			t.Fatalf("member %d served as %+v, want build %d succeeded with %v mAh", i, b, runs[i].Build, runs[i].Result.EnergyMAH)
		}
	}
}

// TestPlatformRunsEveryNodeAtOnce: a campaign POSTed to a platform's
// own server runs on every free vantage point at once — the platform's
// server caps no executors below its node locks.
func TestPlatformRunsEveryNodeAtOnce(t *testing.T) {
	plat, clk, nodes, serials := newCampaignRig(t, 3)
	var cs api.CampaignSpec
	for i := range nodes {
		cs.Experiments = append(cs.Experiments, videoSpec(nodes[i], serials[i], 20*time.Second))
	}
	admin, err := plat.Access.Users.Add("alice", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(cs)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/campaigns", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+admin.Token)
	w := httptest.NewRecorder()
	plat.Access.Handler().ServeHTTP(w, req)
	if w.Code/100 != 2 {
		t.Fatalf("POST /api/v1/campaigns: %d %s", w.Code, w.Body)
	}
	var resp api.CampaignResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var st api.CampaignStatus
	getJSON(t, plat, fmt.Sprintf("/api/v1/campaigns/%d", resp.Campaign), &st)
	for _, b := range st.Builds {
		if b.State != "running" || b.StartedAtNS != clk.Now().UnixNano() {
			t.Fatalf("build %d on %s: %s since %d, want running since %d",
				b.ID, b.Node, b.State, b.StartedAtNS, clk.Now().UnixNano())
		}
	}
	if len(st.Builds) != 3 {
		t.Fatalf("campaign has %d builds", len(st.Builds))
	}
	if err := clk.RunWhile(func() bool { return plat.Access.Running() > 0 }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignDeterministicAndMatchesSequential(t *testing.T) {
	energies := func(runs []CampaignRun) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			if r.Err != nil {
				t.Fatalf("run %d: %v", i, r.Err)
			}
			out[i] = r.Result.EnergyMAH
		}
		return out
	}

	// Same campaign on two fresh platforms: bit-identical outcomes.
	plat1, _, nodes, serials := newCampaignRig(t, 2)
	e1 := energies(runCampaign(t, plat1, sixSpecs(nodes, serials)))
	plat2, _, nodes2, serials2 := newCampaignRig(t, 2)
	e2 := energies(runCampaign(t, plat2, sixSpecs(nodes2, serials2)))
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("campaign not seed-stable: run %d %v vs %v", i, e1[i], e2[i])
		}
	}

	// Concurrency does not change the science: each node's runs, executed
	// one by one with StartExperimentSpec on a fresh platform, land
	// on the same timeline as inside the concurrent campaign — and so
	// produce bit-identical energies. (One fresh platform per node: a
	// single sequential sweep over both nodes would shift the second
	// node's runs to later instants and different noise realizations.)
	for n := 0; n < 2; n++ {
		platN, _, nodesN, serialsN := newCampaignRig(t, 2)
		for i, ws := range sixSpecs(nodesN, serialsN).Experiments {
			if ws.Node != nodesN[n] {
				continue
			}
			res, err := run(platN, ws)
			if err != nil {
				t.Fatalf("baseline run %d: %v", i, err)
			}
			if res.EnergyMAH != e1[i] {
				t.Fatalf("campaign run %d (%s) = %v mAh, sequential baseline = %v mAh",
					i, ws.Node, e1[i], res.EnergyMAH)
			}
		}
	}
}

func TestCampaignPerRunErrors(t *testing.T) {
	plat, _, nodes, serials := newCampaignRig(t, 2)
	// A workload that fails mid-run: the launched app is not installed.
	plat.Workloads().Register("bad", func(api.Params) (func(automation.Driver) *automation.Script, error) {
		return func(drv automation.Driver) *automation.Script {
			s := automation.NewScript("bad")
			s.Add("boom", time.Second, func() error {
				_, err := drv.LaunchApp("com.not.installed")
				return err
			})
			return s
		}, nil
	})
	bad := videoSpec(nodes[1], serials[1], 0)
	bad.Workload = api.WorkloadSpec{Name: "bad"}
	runs := runCampaign(t, plat, api.CampaignSpec{Experiments: []api.ExperimentSpec{
		videoSpec(nodes[0], serials[0], 10*time.Second),
		bad,
		videoSpec(nodes[1], serials[1], 10*time.Second),
	}})
	if runs[0].Err != nil || runs[0].Result == nil {
		t.Fatalf("run 0: %v", runs[0].Err)
	}
	if runs[1].Err == nil || runs[1].Result != nil {
		t.Fatal("run 1 should have failed its workload")
	}
	// Siblings on the same node keep running after a failure.
	if runs[2].Err != nil || runs[2].Result == nil {
		t.Fatalf("run 2: %v", runs[2].Err)
	}

	// A spec naming an unknown device fails the submission, typed, and
	// queues nothing.
	before := plat.Access.QueueLength() + plat.Access.Running()
	_, err := plat.StartCampaignSpec(context.Background(), api.CampaignSpec{Experiments: []api.ExperimentSpec{
		videoSpec(nodes[0], serials[0], 10*time.Second),
		videoSpec(nodes[1], "NOPE", 10*time.Second),
	}})
	if !errors.Is(err, accessserver.ErrNotFound) {
		t.Fatalf("unknown device: err = %v, want ErrNotFound", err)
	}
	if n := plat.Access.QueueLength() + plat.Access.Running(); n != before {
		t.Fatalf("a rejected campaign left %d builds queued or running", n-before)
	}
}

func TestCampaignCancel(t *testing.T) {
	plat, clk, nodes, serials := newCampaignRig(t, 2)
	cs, err := plat.StartCampaignSpec(context.Background(), sixSpecs(nodes, serials))
	if err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(5*time.Second, func() { cs.Cancel() })
	runs, err := cs.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	canceled := 0
	for _, run := range runs {
		if errors.Is(run.Err, ErrCanceled) {
			canceled++
		}
	}
	// At 5 s every first-wave run is mid-workload and every queued run is
	// still pending: all six cancel.
	if canceled != 6 {
		t.Fatalf("canceled = %d, want 6", canceled)
	}
	for _, name := range nodes {
		ctl, _ := plat.Controller(name)
		if ctl.Measuring() != "" {
			t.Fatalf("%s still measuring after cancel", name)
		}
		if ctl.VPN().Active() != nil {
			t.Fatalf("%s VPN still up after cancel", name)
		}
	}
	// Cancel is idempotent.
	cs.Cancel()

	// Cancelling Wait's context cancels the campaign the same way.
	cs, err = plat.StartCampaignSpec(context.Background(), sixSpecs(nodes, serials))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	clk.AfterFunc(5*time.Second, cancel)
	runs, err = cs.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	for _, run := range runs {
		if !errors.Is(run.Err, ErrCanceled) {
			t.Fatalf("run %d: err = %v, want ErrCanceled", run.Index, run.Err)
		}
	}
}

func TestCampaignMaxConcurrent(t *testing.T) {
	plat, _, nodes, serials := newCampaignRig(t, 2)
	cs := sixSpecs(nodes, serials)
	cs.MaxConcurrent = 1
	runs := runCampaign(t, plat, cs)
	for i := range runs {
		if runs[i].Err != nil {
			t.Fatalf("run %d: %v", i, runs[i].Err)
		}
		for j := i + 1; j < len(runs); j++ {
			if runs[i].Started.Before(runs[j].Finished) && runs[j].Started.Before(runs[i].Finished) {
				t.Fatalf("runs %d and %d overlap despite MaxConcurrent=1", i, j)
			}
		}
	}
}

func TestCampaignRealClock(t *testing.T) {
	clk := simclock.Real()
	plat, err := NewPlatform(clk, 9)
	if err != nil {
		t.Fatal(err)
	}
	plat.Workloads().Register("sleep", func(api.Params) (func(automation.Driver) *automation.Script, error) {
		return sleepWorkload(4, 50*time.Millisecond), nil
	})
	var cs api.CampaignSpec
	for i := 0; i < 2; i++ {
		name := "node" + string(rune('1'+i))
		ctl, err := controller.New(clk, controller.Config{Name: name, Seed: uint64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := device.New(clk, device.Config{Seed: uint64(20 + i), Serial: "DEV" + name})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.AttachDevice(dev); err != nil {
			t.Fatal(err)
		}
		if _, err := plat.Join(ctl, "198.51.100."+string(rune('1'+i))+":2222"); err != nil {
			t.Fatal(err)
		}
		cs.Experiments = append(cs.Experiments, api.ExperimentSpec{
			Node: name, Device: dev.Serial(),
			Monitor:  api.MonitorSpec{SampleRateHz: 100, PaddingMS: 50, CPUSamplePeriodMS: 20},
			Workload: api.WorkloadSpec{Name: "sleep"},
		})
	}
	for i, run := range runCampaign(t, plat, cs) {
		if run.Err != nil {
			t.Fatalf("run %d: %v", i, run.Err)
		}
		if run.Result.EnergyMAH <= 0 {
			t.Fatalf("run %d measured no energy", i)
		}
	}
}

// TestLocalRunHoldsItsNode: an in-process run is a build on the
// platform's own server, so the scheduler sees it hold its vantage
// point. A campaign member for the same node, submitted while the run is
// in flight, queues behind it, starts at the instant it finishes, and
// succeeds.
func TestLocalRunHoldsItsNode(t *testing.T) {
	plat, clk, nodes, serials := newCampaignRig(t, 1)
	ctx := context.Background()
	x, err := plat.StartExperimentSpec(ctx, videoSpec(nodes[0], serials[0], 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := plat.StartCampaignSpec(ctx, api.CampaignSpec{Experiments: []api.ExperimentSpec{
		videoSpec(nodes[0], serials[0], 20*time.Second),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Wait(ctx); err != nil {
		t.Fatalf("local run: %v", err)
	}
	finished := clk.Now()
	runs, err := cs.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Err != nil {
		t.Fatalf("campaign member: %v", runs[0].Err)
	}
	if !runs[0].Started.Equal(finished) {
		t.Fatalf("campaign member started at %s, the local run finished at %s",
			runs[0].Started.Format(time.StampMilli), finished.Format(time.StampMilli))
	}
}
