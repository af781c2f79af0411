package schedsim

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// TestDoubleRunDeterminism replays the same script twice and requires
// bit-identical outcomes: node assignments, placement scores, attempt
// counts, and wait/run durations (hence finish instants). This is the
// tentpole property — placement scoring and batch dispatch may not
// introduce any run-to-run variation on the virtual clock.
func TestDoubleRunDeterminism(t *testing.T) {
	r1, err := Run(RichScript())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := Run(RichScript())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(r1, r2) {
		for i := range r1.Builds {
			if !reflect.DeepEqual(r1.Builds[i], r2.Builds[i]) {
				t.Errorf("build %d diverged:\n  run1: %+v\n  run2: %+v", i, r1.Builds[i], r2.Builds[i])
			}
		}
		t.Fatalf("replay diverged (makespan %d vs %d)", r1.MakespanNS, r2.MakespanNS)
	}
	if r1.MakespanNS <= 0 {
		t.Fatalf("makespan %d, want > 0", r1.MakespanNS)
	}
	// The scripted kills must actually have exercised failover.
	failovers := 0
	for _, b := range r1.Builds {
		failovers += b.Failovers
	}
	if failovers == 0 {
		t.Fatal("script produced no failovers; the determinism check is not covering the failover path")
	}
}

// TestEveryBuildDispatchesOrFailsTyped is the liveness property: under
// node kills, a never-registering node, and no fallback, every build
// still reaches a terminal state — success, or a failure carrying the
// typed ErrNodeLost marker — rather than waiting forever.
func TestEveryBuildDispatchesOrFailsTyped(t *testing.T) {
	script := Script{
		Nodes: []NodeSpec{
			{Name: "alive", Devices: []string{"pixel4-a"}},
			{Name: "doomed", Devices: []string{"pixel4-b"}, KillAt: 10 * time.Second},
		},
		Builds: []BuildSpec{
			{Owner: "ana", Node: "alive", Device: "pixel4-a", Duration: 5 * time.Second},
			// Pinned to the doomed node, no fallback: dies mid-run,
			// fails over to nothing, exhausts the retry budget.
			{Owner: "ana", Node: "doomed", Device: "pixel4-b", Duration: 60 * time.Second},
			// Pinned to a node that never joins the fleet: ages out at
			// the pending timeout.
			{Owner: "bo", Node: "ghost", Device: "pixel4-x", Duration: 5 * time.Second},
		},
		Config: accessserver.Config{Executors: 4},
	}
	res, err := Run(script)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, b := range res.Builds {
		switch b.State {
		case "success":
		case "failure":
			if !b.NodeLost {
				t.Errorf("build %d failed untyped: %s", b.Index, b.Err)
			}
		default:
			t.Errorf("build %d ended %q, want a terminal state", b.Index, b.State)
		}
	}
	if res.Builds[0].State != "success" {
		t.Errorf("build 0 on the healthy node ended %q: %s", res.Builds[0].State, res.Builds[0].Err)
	}
	for _, i := range []int{1, 2} {
		if res.Builds[i].State != "failure" {
			t.Errorf("build %d should have failed typed, ended %q", i, res.Builds[i].State)
		}
	}
}

// TestScoringMonotonicity checks the default placer's contract: all
// else equal, each reliability penalty strictly lowers the score and a
// model match strictly raises it.
func TestScoringMonotonicity(t *testing.T) {
	p := accessserver.WeightedPlacer{W: accessserver.DefaultScoreWeights()}
	base := accessserver.PlacementCandidate{
		Node: "n", Device: "pixel4-a", Health: accessserver.HealthOnline,
		Running: 1, Flaps: 2, Failovers: 1,
	}
	s0 := p.Score(base)

	worse := []func(c accessserver.PlacementCandidate) accessserver.PlacementCandidate{
		func(c accessserver.PlacementCandidate) accessserver.PlacementCandidate { c.Running++; return c },
		func(c accessserver.PlacementCandidate) accessserver.PlacementCandidate { c.Flaps++; return c },
		func(c accessserver.PlacementCandidate) accessserver.PlacementCandidate { c.Failovers++; return c },
		func(c accessserver.PlacementCandidate) accessserver.PlacementCandidate { c.RecentFlap = true; return c },
	}
	for i, mut := range worse {
		if s := p.Score(mut(base)); s >= s0 {
			t.Errorf("mutation %d: score %v, want < base %v", i, s, s0)
		}
	}
	better := base
	better.ModelMatch = true
	if s := p.Score(better); s <= s0 {
		t.Errorf("model match: score %v, want > base %v", s, s0)
	}
}

// TestScorerPlacesByModelAndLoad drives the integrated policy: a
// fallback build whose pinned node never appears must land on the
// model-matched node when one is free, and on the least-loaded
// alternative when scores otherwise tie.
func TestScorerPlacesByModelAndLoad(t *testing.T) {
	script := Script{
		Nodes: []NodeSpec{
			{Name: "moto-1", Devices: []string{"motog5-a"}},
			{Name: "pixel-1", Devices: []string{"pixel4-a"}},
			{Name: "pixel-2", Devices: []string{"pixel4-b"}},
		},
		Config: accessserver.Config{Executors: 8},
		Builds: []BuildSpec{
			// Occupy pixel-1 so queue depth penalizes it.
			{Owner: "ana", Node: "pixel-1", Device: "pixel4-a", Duration: 5 * time.Minute},
			// Fallback wanting a pixel4: must choose pixel-2 — model
			// match beats moto-1, and pixel-1 is busy and locked.
			{Owner: "bo", Node: "gone", Device: "pixel4-z", Fallback: true, Duration: 10 * time.Second},
			// Fallback wanting a motog5: moto-1 wins on model match.
			{Owner: "cy", Node: "gone", Device: "motog5-z", Fallback: true, Duration: 10 * time.Second},
		},
	}
	res, err := Run(script)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := res.Builds[1].Node; got != "pixel-2" {
		t.Errorf("pixel-model fallback landed on %q, want pixel-2", got)
	}
	if got := res.Builds[2].Node; got != "moto-1" {
		t.Errorf("moto-model fallback landed on %q, want moto-1", got)
	}
	for _, i := range []int{1, 2} {
		if res.Builds[i].State != "success" {
			t.Errorf("build %d ended %q: %s", i, res.Builds[i].State, res.Builds[i].Err)
		}
	}
}

// TestAdmissionShedsTyped covers both admission gates end to end: the
// per-owner in-flight cap sheds the over-quota owner with the owner_cap
// reason, and the queue watermark sheds everyone once the fleet
// saturates — both as typed ErrOverloaded, while admitted builds still
// complete.
func TestAdmissionShedsTyped(t *testing.T) {
	script := Script{
		Nodes: []NodeSpec{
			// Registers late so submissions pile into the queue.
			{Name: "n1", Devices: []string{"pixel4-a"}, RegisterAt: 5 * time.Second},
		},
		Config: accessserver.Config{
			Executors:        4,
			OwnerInFlightCap: 3,
			ShedWatermark:    5,
		},
	}
	// "hog" tries 6 (cap 3); then two others fill to the watermark.
	for i := 0; i < 6; i++ {
		script.Builds = append(script.Builds, BuildSpec{
			Owner: "hog", Node: "n1", Device: "pixel4-a", Sync: true,
		})
	}
	for i := 0; i < 4; i++ {
		script.Builds = append(script.Builds, BuildSpec{
			Owner: fmt.Sprintf("u%d", i%2), Node: "n1", Device: "pixel4-a", Sync: true,
		})
	}
	res, err := Run(script)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var ownerCap, watermark, ok int
	for _, b := range res.Builds {
		switch {
		case b.Shed && b.ShedReason == accessserver.ShedOwnerCap:
			ownerCap++
		case b.Shed && b.ShedReason == accessserver.ShedQueueWatermark:
			watermark++
		case b.State == "success":
			ok++
		default:
			t.Errorf("build %d: state %q shed=%v reason=%q err=%s", b.Index, b.State, b.Shed, b.ShedReason, b.Err)
		}
	}
	if ownerCap != 3 {
		t.Errorf("owner_cap sheds = %d, want 3 (hog submitted 6 against cap 3)", ownerCap)
	}
	// hog holds 3 queue slots; the watermark (5) admits 2 more, sheds 2.
	if watermark != 2 {
		t.Errorf("queue_watermark sheds = %d, want 2", watermark)
	}
	if ok != 5 {
		t.Errorf("completed builds = %d, want 5", ok)
	}
	if res.Shed != ownerCap+watermark {
		t.Errorf("Result.Shed = %d, want %d", res.Shed, ownerCap+watermark)
	}
}

// newDirectServer is the non-scripted harness for tests that need to
// poke the server mid-run (pending reasons, deep queues).
func newDirectServer(t *testing.T, cfg accessserver.Config) (*simclock.Virtual, *accessserver.Server, *accessserver.User) {
	t.Helper()
	clk := simclock.NewVirtual()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 5 * time.Second
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.PendingTimeout == 0 {
		cfg.PendingTimeout = 10 * time.Minute
	}
	srv := accessserver.New(clk, cfg)
	srv.SetSpecBackend(backend{clock: clk})
	admin, err := srv.Users.Add("op", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	return clk, srv, admin
}

func simSpec(node, device string, params api.Params) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: device,
		Workload: api.WorkloadSpec{Name: "sim", Params: params},
	}
}

// TestPendingReasonStable is the churn regression: a build skipped for
// several reasons in one pass must report the highest-priority one, and
// keep reporting it across repeated scans.
func TestPendingReasonStable(t *testing.T) {
	clk, srv, admin := newDirectServer(t, accessserver.Config{Executors: 4})
	n := accessserver.NewFlakyNode(simNode{name: "n1", devices: "pixel4-a"})
	if err := srv.RegisterNode(n); err != nil {
		t.Fatal(err)
	}

	// A campaign capped at 1 with both builds wanting the same device:
	// the second build is blocked by the campaign cap AND the device
	// lock at once. The cap outranks the lock and must win every scan.
	long := api.Params{"duration_ms": 600_000}
	_, builds, err := srv.SubmitCampaign(admin, api.CampaignSpec{
		MaxConcurrent: 1,
		Experiments: []api.ExperimentSpec{
			simSpec("n1", "pixel4-a", long),
			simSpec("n1", "pixel4-a", long),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := builds[0].State(); got != accessserver.StateRunning {
		t.Fatalf("build 0 is %v, want running", got)
	}
	const want = "campaign concurrency cap reached"
	for scan := 0; scan < 5; scan++ {
		if got := builds[1].PendingReason(); got != want {
			t.Fatalf("scan %d: pending reason %q, want %q", scan, got, want)
		}
		srv.Kick()
		clk.Advance(time.Second)
	}

	// Saturate the executors with unrelated builds on other devices:
	// executor pressure outranks everything and must take over the
	// reported reason (the old scheduler returned early when saturated,
	// leaving a stale lower-priority reason behind).
	n2 := accessserver.NewFlakyNode(simNode{name: "n2", devices: "pixel4-b\npixel4-c\npixel4-d"})
	if err := srv.RegisterNode(n2); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"pixel4-b", "pixel4-c", "pixel4-d"} {
		if _, err := srv.SubmitSpec(admin, simSpec("n2", dev, long)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Kick()
	if got := builds[1].PendingReason(); got != "waiting for a free executor" {
		t.Fatalf("under saturation: pending reason %q, want executor wait", got)
	}
}

// TestDeepQueueNoStackGrowth proves the dispatchOne→finish→dispatch
// recursion is gone: 10k synchronous builds drain through one dispatch
// under a stack ceiling the old recursive scheduler (one finish frame
// per queued build) could not fit in.
func TestDeepQueueNoStackGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-build drain")
	}
	const total = 10_000
	_, srv, admin := newDirectServer(t, accessserver.Config{Executors: total + 1})

	devices := ""
	for i := 0; i < total; i++ {
		if i > 0 {
			devices += "\n"
		}
		devices += fmt.Sprintf("pixel4-%04d", i)
	}
	sync := api.Params{"sync": true}
	// Queue everything before the node exists, in max-size campaign
	// chunks (one dispatch pass per chunk instead of one per build).
	var all []*accessserver.Build
	for base := 0; base < total; base += accessserver.MaxCampaignExperiments {
		n := accessserver.MaxCampaignExperiments
		if base+n > total {
			n = total - base
		}
		specs := make([]api.ExperimentSpec, n)
		for i := range specs {
			specs[i] = simSpec("n1", fmt.Sprintf("pixel4-%04d", base+i), sync)
		}
		_, builds, err := srv.SubmitCampaign(admin, api.CampaignSpec{Experiments: specs})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, builds...)
	}
	if got := srv.QueueLength(); got != total {
		t.Fatalf("queued %d, want %d", got, total)
	}

	// 4 MiB ceiling: ample for an iterative drain, fatal for 10k
	// nested finish→dispatch frames.
	old := debug.SetMaxStack(4 << 20)
	defer debug.SetMaxStack(old)

	// Registering the node triggers the one dispatch that drains all
	// 10k synchronous builds.
	if err := srv.RegisterNode(accessserver.NewFlakyNode(simNode{name: "n1", devices: devices})); err != nil {
		t.Fatal(err)
	}
	for i, b := range all {
		if b.State() != accessserver.StateSuccess {
			t.Fatalf("build %d ended %v after the drain", i, b.State())
		}
	}
}

// skewedScript is the admission-fairness shape: a hog floods the queue
// with 70% of the builds before three small tenants submit 10% each behind
// its backlog, all under a fair-share run cap of three.
func skewedScript(builds, nodes int) Script {
	small := builds / 10
	hog := builds - 3*small
	s := FleetScript(builds, nodes, 0, func(i int) string {
		if i < hog {
			return "hog"
		}
		return fmt.Sprintf("u%d", 1+(i-hog)/small)
	})
	s.Config = accessserver.Config{OwnerRunCap: 3, PendingTimeout: time.Hour}
	return s
}

// heteroScript is the scoring shape: half the nodes host a pixel4, half a
// motog5, and every build pins a node that is long gone and asks for one
// model or the other, so only fallback placement — the scorer's
// model-match term — can run it.
func heteroScript(builds, nodes int) Script {
	models := []string{"pixel4", "motog5"}
	var s Script
	for i := 0; i < nodes; i++ {
		m, unit := models[i%2], i/2
		s.Nodes = append(s.Nodes, NodeSpec{
			Name: fmt.Sprintf("%s-host%02d", m, unit), Devices: []string{fmt.Sprintf("%s-%02d", m, unit)},
		})
	}
	for i := 0; i < builds; i++ {
		s.Builds = append(s.Builds, BuildSpec{
			Owner: "bench", Node: "retired-node", Device: models[i%2] + "-want", Fallback: true, Duration: 10 * time.Second,
		})
	}
	return s
}

// TestFleetScenarios holds four fleet conditions at 100 builds on 10 nodes
// to the outcomes the scheduler has always produced for them: a healthy
// fleet, one that loses three nodes in ten mid-run (their builds fail over
// and every one still succeeds), one owner submitting 70% of the work under
// a fair-share cap, and a mixed-model fleet placed by the scorer alone. The
// numbers are literals on purpose — a change that moves one is a change in
// scheduling behaviour and says so here.
func TestFleetScenarios(t *testing.T) {
	const builds, nodes = 100, 10
	cases := []struct {
		name                         string
		script                       Script
		succeeded, failed, failovers int
		makespanMS                   int64
		// worstWaitMS is each owner's worst submit→dispatch wait (nil: not
		// a fairness scenario).
		worstWaitMS map[string]int64
		// onModel is how many builds must land on a node hosting the device
		// model they asked for (0: not a scoring scenario).
		onModel int
	}{
		{"healthy", FleetScript(builds, nodes, 0, nil), 100, 0, 0, 100_000, nil, 0},
		{"flaky-30pct", FleetScript(builds, nodes, 3, nil), 100, 0, 3, 140_000, nil, 0},
		{"skewed-tenant", skewedScript(builds, nodes), 100, 0, 0, 240_000,
			map[string]int64{"hog": 230_000, "u1": 40_000, "u2": 50_000, "u3": 60_000}, 0},
		{"hetero-fleet", heteroScript(builds/5, nodes), 20, 0, 0, 20_000, nil, 20},
	}
	// pixel4-host03 hosts the model a build asking for pixel4-want wants.
	model := func(name string) string { m, _, _ := strings.Cut(name, "-"); return m }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.script)
			if err != nil {
				t.Fatal(err)
			}
			var succeeded, failed, failovers, onModel int
			worst := map[string]int64{}
			for _, b := range res.Builds {
				if b.State == "success" {
					succeeded++
				} else {
					failed++
				}
				failovers += b.Failovers
				if ms := time.Duration(b.WaitNS).Milliseconds(); ms > worst[b.Owner] {
					worst[b.Owner] = ms
				}
				if model(b.Node) == model(tc.script.Builds[b.Index].Device) {
					onModel++
				}
			}
			if succeeded != tc.succeeded || failed != tc.failed || failovers != tc.failovers {
				t.Errorf("succeeded/failed/failovers = %d/%d/%d, want %d/%d/%d",
					succeeded, failed, failovers, tc.succeeded, tc.failed, tc.failovers)
			}
			if got := time.Duration(res.MakespanNS).Milliseconds(); got != tc.makespanMS {
				t.Errorf("makespan %d ms, want %d", got, tc.makespanMS)
			}
			if onModel != tc.onModel {
				t.Errorf("%d builds placed on the requested model, want %d", onModel, tc.onModel)
			}
			if tc.worstWaitMS == nil {
				return
			}
			if !reflect.DeepEqual(worst, tc.worstWaitMS) {
				t.Errorf("worst wait per owner %v ms, want %v", worst, tc.worstWaitMS)
			}
			// Starvation would show as a small tenant's worst wait tracking
			// the hog's; fairness keeps it under half (the hog queues behind
			// its own cap, the small tenants only behind free executors).
			for owner, ms := range worst {
				if 2*ms > worst["hog"] && owner != "hog" {
					t.Errorf("tenant %s starved: worst wait %d ms against the hog's %d", owner, ms, worst["hog"])
				}
			}
		})
	}
}

// BenchmarkFleet times the three FleetScript conditions at two queue
// depths on 10 nodes and reports what the drain passes spent per build —
// counts that repeat exactly, beside an ns/op that does not. Profile one
// with
//
//	go test -run '^$' -bench 'Fleet/flaky-30pct/10000' -benchtime 1x \
//	    -cpuprofile sched.prof ./internal/accessserver/schedsim/
func BenchmarkFleet(b *testing.B) {
	const nodes = 10
	for _, sc := range []struct {
		name   string
		script func(builds int) Script
	}{
		{"healthy", func(n int) Script { return FleetScript(n, nodes, 0, nil) }},
		{"flaky-30pct", func(n int) Script { return FleetScript(n, nodes, 3, nil) }},
		{"skewed-tenant", func(n int) Script { return skewedScript(n, nodes) }},
	} {
		for _, builds := range []int{1000, 10_000} {
			b.Run(fmt.Sprintf("%s/%d", sc.name, builds), func(b *testing.B) {
				var res Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = Run(sc.script(builds)); err != nil {
						b.Fatal(err)
					}
				}
				for _, r := range res.Builds {
					if r.State != "success" {
						b.Fatalf("build %d ended %s (%s)", r.Index, r.State, r.Err)
					}
				}
				b.ReportMetric(float64(res.DrainVisits)/float64(builds), "visits/build")
				b.ReportMetric(float64(res.PlacementEvals)/float64(builds), "evals/build")
			})
		}
	}
}
