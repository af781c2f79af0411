package accessserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/controller"
	"batterylab/internal/simclock"
)

// fakeVP is an instant in-process vantage point for scheduler tests:
// pings succeed, one synthetic device, no hardware behind it.
type fakeVP struct{ name string }

func (n fakeVP) Name() string { return n.name }
func (n fakeVP) Ping() error  { return nil }
func (n fakeVP) Exec(cmd string, args ...string) (string, error) {
	switch cmd {
	case "ping":
		return "pong", nil
	case "list_devices":
		return "dev-" + n.name, nil
	}
	return "", nil
}

// faultCfg is the compressed health timeline the fault tests run on.
func faultCfg() Config {
	return Config{
		HeartbeatEvery: time.Second,
		SuspectAfter:   2 * time.Second,
		OfflineAfter:   4 * time.Second,
		RetryBackoff:   2 * time.Second,
		MaxRetries:     2,
		PendingTimeout: time.Minute,
	}
}

// hangingBackend compiles specs into pipelines that complete after 10 s
// only if the node still answers — a run on a dead vantage point hangs,
// which is exactly the failure mode the lease watchdog breaks.
type hangingBackend struct{ clk simclock.Clock }

func (b hangingBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	cons := Constraints{Node: spec.Node, Device: spec.Device, Fallback: spec.Constraints.AllowFallback}
	return cons, func(ctx *BuildContext, done func(error)) {
		b.clk.AfterFunc(10*time.Second, func() {
			if _, err := ctx.Node.Exec("ping"); err != nil {
				return // node dead: the pipeline never reports back
			}
			done(nil)
		})
	}, nil
}

func (hangingBackend) WorkloadNames() []string { return []string{"hang"} }

func TestNodeHealthLifecycle(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	if err := srv.RegisterNode(flk); err != nil {
		t.Fatal(err)
	}

	if h := srv.NodeHealth("vp1").Health; h != HealthOnline {
		t.Fatalf("fresh node health = %v", h)
	}
	clk.Advance(10 * time.Second)
	if h := srv.NodeHealth("vp1").Health; h != HealthOnline {
		t.Fatalf("beating node health = %v", h)
	}

	flk.Kill()
	clk.Advance(2 * time.Second)
	if h := srv.NodeHealth("vp1").Health; h != HealthSuspect {
		t.Fatalf("health after %v silence = %v, want suspect", 2*time.Second, h)
	}
	clk.Advance(2 * time.Second)
	if h := srv.NodeHealth("vp1").Health; h != HealthOffline {
		t.Fatalf("health after %v silence = %v, want offline", 4*time.Second, h)
	}

	flk.Revive()
	clk.Advance(time.Second) // next heartbeat probe
	if h := srv.NodeHealth("vp1").Health; h != HealthOnline {
		t.Fatalf("health after revival = %v, want online", h)
	}

	// Unmonitored nodes keep the legacy always-online contract.
	if err := srv.Nodes.Register(fakeVP{name: "legacy"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	if h := srv.NodeHealth("legacy").Health; h != HealthOnline {
		t.Fatalf("unmonitored node health = %v, want online", h)
	}
}

// TestLeaseFailoverToSurvivingNode is the heart of the subsystem: a
// build running on a node that dies mid-run is reclaimed when its
// lease breaks and requeued onto a surviving node, where it completes.
func TestLeaseFailoverToSurvivingNode(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	if err := srv.RegisterNode(flk); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterNode(fakeVP{name: "vp2"}); err != nil {
		t.Fatal(err)
	}

	b, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1",
		Workload:    api.WorkloadSpec{Name: "hang"},
		Constraints: api.ConstraintsSpec{AllowFallback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateRunning || b.NodeName() != "vp1" {
		t.Fatalf("state=%v node=%q after submit", b.State(), b.NodeName())
	}

	// The node dies 3 s in; its run will hang at t=10 s.
	clk.AfterFunc(3*time.Second, flk.Kill)
	clk.Advance(30 * time.Second)

	if b.State() != StateSuccess {
		t.Fatalf("state = %v (%v), want success on the survivor", b.State(), b.Err())
	}
	if b.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", b.Retries())
	}
	if b.NodeName() != "vp2" || b.Attempts() != 2 {
		t.Fatalf("final node=%q attempts=%d, want vp2 on attempt 2", b.NodeName(), b.Attempts())
	}
	// The failover transition is on the event feed for streaming clients.
	evs, _, _ := b.Feed().EventsSince(0)
	found := false
	for _, e := range evs {
		if e.Phase == api.EventFailover && strings.Contains(e.Error, "vp1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failover event in feed: %+v", evs)
	}
	if !strings.Contains(b.Log(), "requeued") {
		t.Fatalf("log missing requeue record:\n%s", b.Log())
	}
}

// TestRetryBudgetSpentFailsTyped: a node that keeps flapping burns the
// build's retry budget; the build fails with ErrNodeLost and the wire
// status carries the node_lost flag.
func TestRetryBudgetSpentFailsTyped(t *testing.T) {
	cfg := faultCfg()
	cfg.MaxRetries = 1
	clk := simclock.NewVirtual()
	srv := New(clk, cfg)
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	if err := srv.RegisterNode(flk); err != nil {
		t.Fatal(err)
	}

	b, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1",
		Workload: api.WorkloadSpec{Name: "hang"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flap: die at 1.5 s (first lease breaks ~5 s, requeue ~7 s),
	// return at 6 s so the retry dispatches, die again at 7.5 s.
	clk.AfterFunc(1500*time.Millisecond, flk.Kill)
	clk.AfterFunc(6*time.Second, flk.Revive)
	clk.AfterFunc(7500*time.Millisecond, flk.Kill)
	clk.Advance(time.Minute)

	if b.State() != StateFailure {
		t.Fatalf("state = %v, want failure after budget spent", b.State())
	}
	if !errors.Is(b.Err(), ErrNodeLost) {
		t.Fatalf("err = %v, want ErrNodeLost", b.Err())
	}
	if b.Attempts() != 2 || b.Retries() != 1 {
		t.Fatalf("attempts=%d retries=%d, want 2/1", b.Attempts(), b.Retries())
	}
}

// TestStaleAttemptCannotHijackCancelHook: a failed-over attempt's
// pipeline that finally comes back must be inert — its late OnCancel
// registration may not displace the live attempt's hook, and its
// context reports stale.
func TestStaleAttemptCannotHijackCancelHook(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	var (
		mu   sync.Mutex
		ctxs []*BuildContext
	)
	backend := funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		cons := Constraints{Node: spec.Node, Device: spec.Device, Fallback: true}
		return cons, func(ctx *BuildContext, done func(error)) {
			mu.Lock()
			ctxs = append(ctxs, ctx)
			mu.Unlock()
			// Never completes on its own; cancellation settles it.
		}, nil
	})
	srv.SetSpecBackend(backend)
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	srv.RegisterNode(flk)
	srv.RegisterNode(fakeVP{name: "vp2"})

	b, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(time.Second, flk.Kill)
	clk.Advance(30 * time.Second) // lease breaks, retry lands on vp2
	if b.State() != StateRunning || b.Attempts() != 2 {
		t.Fatalf("state=%v attempts=%d, want attempt 2 running", b.State(), b.Attempts())
	}
	mu.Lock()
	first, second := ctxs[0], ctxs[1]
	mu.Unlock()
	if !first.Stale() || second.Stale() {
		t.Fatalf("staleness: first=%v second=%v, want true/false", first.Stale(), second.Stale())
	}

	// The live attempt registers its hook; the reclaimed attempt then
	// shows up late with its own. The stale registration must not
	// displace the live hook — instead it fires immediately, tearing
	// down the orphaned session nobody else holds a handle to.
	var liveFired, staleFired bool
	second.OnCancel(func() { liveFired = true })
	first.OnCancel(func() { staleFired = true })
	if !staleFired {
		t.Fatal("stale registration did not tear the orphaned attempt down")
	}
	if liveFired {
		t.Fatal("live hook fired before any abort")
	}
	if err := srv.Abort(admin, b.ID); err != nil {
		t.Fatal(err)
	}
	if !liveFired {
		t.Fatal("abort did not run the live attempt's hook")
	}
}

// funcBackend adapts a function to SpecBackend for one-off tests.
type funcBackend func(api.ExperimentSpec) (Constraints, RunFunc, error)

func (f funcBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	return f(spec)
}
func (funcBackend) WorkloadNames() []string { return nil }

// TestHungNodeCannotStallDispatch pins the nodeCPULowLocked fix: a node
// whose Exec blocks forever used to wedge the scheduler (the probe ran
// under s.mu), freezing Submit/Abort/status for everyone. Now the probe
// runs outside the lock and only that node's builds wait.
func TestHungNodeCannotStallDispatch(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	tb := backedServer(srv)
	admin, _ := srv.Users.Add("a", RoleAdmin)

	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	if err := srv.Nodes.Register(blockingNode{name: "slow", gate: block}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Nodes.Register(fakeVP{name: "fast"}); err != nil {
		t.Fatal(err)
	}

	// The CPU-gated build probes "slow", whose Exec never returns.
	tb.createJob(srv, admin, "gated", Constraints{Node: "slow", RequireLowCPU: true}, noopJob)
	stuck := make(chan *Build, 1)
	go func() {
		b, err := srv.Submit(admin, "gated")
		if err != nil {
			t.Error(err)
		}
		stuck <- b
	}()
	var gated *Build
	select {
	case gated = <-stuck:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked behind the hung node's probe")
	}
	if gated.State() != StateQueued {
		t.Fatalf("gated build state = %v, want queued behind the probe", gated.State())
	}

	// Everyone else keeps working: another node dispatches instantly,
	// and abort/status stay responsive.
	tb.createJob(srv, admin, "ok", Constraints{Node: "fast"}, noopJob)
	okDone := make(chan *Build, 1)
	go func() {
		b, err := srv.Submit(admin, "ok")
		if err != nil {
			t.Error(err)
		}
		okDone <- b
	}()
	select {
	case b := <-okDone:
		if b.State() != StateSuccess {
			t.Fatalf("healthy node's build state = %v", b.State())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch to the healthy node stalled behind the hung probe")
	}
	if err := srv.Abort(admin, gated.ID); err != nil {
		t.Fatalf("abort during hung probe: %v", err)
	}
}

// TestProbeSurvivesBeingOutpaced: when one dispatch scan both latches
// a CPU probe for a gated build and picks a different build, the probe
// must still launch — dropping it would leave cpuProbing latched true
// and starve the gated build forever.
func TestProbeSurvivesBeingOutpaced(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 1})
	tb := backedServer(srv)
	admin, _ := srv.Users.Add("a", RoleAdmin)
	ctl, err := controller.New(clk, controller.Config{Name: "cpu", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Nodes.Register(NewLocalNode(ctl)) // idle controller: CPU is low
	srv.Nodes.Register(fakeVP{name: "fast1"})
	srv.Nodes.Register(fakeVP{name: "fast2"})

	// Occupy the single executor for 5 s of simulated time.
	tb.createJob(srv, admin, "runner", Constraints{Node: "fast1"},
		func(ctx *BuildContext, done func(error)) {
			clk.AfterFunc(5*time.Second, func() { done(nil) })
		})
	runner, _ := srv.Submit(admin, "runner")
	if runner.State() != StateRunning {
		t.Fatalf("runner state = %v", runner.State())
	}
	// Queue the CPU-gated build first, then a plain build that the
	// freeing scan will pick instead.
	tb.createJob(srv, admin, "gated", Constraints{Node: "cpu", RequireLowCPU: true}, noopJob)
	gated, _ := srv.Submit(admin, "gated")
	tb.createJob(srv, admin, "plain", Constraints{Node: "fast2"}, noopJob)
	plain, _ := srv.Submit(admin, "plain")

	clk.Advance(6 * time.Second)
	if plain.State() != StateSuccess {
		t.Fatalf("plain state = %v", plain.State())
	}
	if gated.State() != StateSuccess {
		t.Fatalf("gated state = %v (reason %q): the latched probe was dropped",
			gated.State(), gated.PendingReason())
	}
}

// blockingNode hangs every Exec until its gate closes — a vantage
// point mid-kernel-panic with the TCP connection still up.
type blockingNode struct {
	name string
	gate chan struct{}
}

func (n blockingNode) Name() string { return n.name }
func (n blockingNode) Exec(cmd string, args ...string) (string, error) {
	<-n.gate
	return "", fmt.Errorf("node %s: connection reset", n.name)
}

// TestQueueAgingFailsOrphanBuilds: a build whose node never registers
// fails with a typed reason after PendingTimeout instead of pending
// forever; a build whose node is merely busy is untouched.
func TestQueueAgingFailsOrphanBuilds(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	if err := srv.RegisterNode(fakeVP{name: "vp1"}); err != nil {
		t.Fatal(err)
	}

	orphan, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "ghost", Device: "d",
		Workload: api.WorkloadSpec{Name: "hang"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := orphan.PendingReason(); !strings.Contains(got, "ghost") {
		t.Fatalf("pending reason = %q, want a waiting-for-node reason", got)
	}
	// A busy-node build must survive aging: first build holds the
	// device, second waits behind the lock.
	srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "hang"}})
	waiting, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "hang"}})
	if err != nil {
		t.Fatal(err)
	}

	clk.Advance(61 * time.Second) // past PendingTimeout

	if orphan.State() != StateFailure || !errors.Is(orphan.Err(), ErrNodeLost) {
		t.Fatalf("orphan state=%v err=%v, want typed node-lost failure", orphan.State(), orphan.Err())
	}
	if waiting.State() != StateSuccess {
		t.Fatalf("busy-node build state = %v (%v); aging must not touch it", waiting.State(), waiting.Err())
	}
}

// TestAgingSparesFallbackBehindBusySurvivor: a fallback build whose
// preferred node is dead must NOT age out while a live fallback node
// is merely busy draining the backlog — campaign tails survive even
// when the serialized wait exceeds PendingTimeout.
func TestAgingSparesFallbackBehindBusySurvivor(t *testing.T) {
	cfg := faultCfg()
	cfg.PendingTimeout = 8 * time.Second // shorter than the survivor's backlog
	clk := simclock.NewVirtual()
	srv := New(clk, cfg)
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	if err := srv.RegisterNode(flk); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterNode(fakeVP{name: "vp2"}); err != nil {
		t.Fatal(err)
	}

	spec := func(node string) api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: node, Device: "dev-" + node,
			Workload:    api.WorkloadSpec{Name: "hang"},
			Constraints: api.ConstraintsSpec{AllowFallback: true},
		}
	}
	b1, _ := srv.SubmitSpec(admin, spec("vp2")) // occupies vp2 for 10 s
	tail, _ := srv.SubmitSpec(admin, spec("vp1"))
	b2, _ := srv.SubmitSpec(admin, spec("vp2")) // vp2's backlog: 10-20 s

	clk.AfterFunc(time.Second, flk.Kill) // vp1 dies; tail's run hangs
	clk.Advance(time.Minute)

	for i, b := range []*Build{b1, b2} {
		if b.State() != StateSuccess {
			t.Fatalf("vp2 build %d state = %v (%v)", i, b.State(), b.Err())
		}
	}
	// The tail build waited behind vp2's backlog well past
	// PendingTimeout — it must have run there, not aged out.
	if tail.State() != StateSuccess {
		t.Fatalf("tail state = %v (%v), want success on the busy survivor", tail.State(), tail.Err())
	}
	if tail.NodeName() != "vp2" {
		t.Fatalf("tail ran on %q, want vp2", tail.NodeName())
	}
}

// TestDeleteJobFailsQueuedBuilds: deleting a job settles its queued
// builds with a typed error instead of leaking them in the queue.
func TestDeleteJobFailsQueuedBuilds(t *testing.T) {
	r := newRig(t)
	r.job(r.exp, "doomed", Constraints{Node: "nowhere"}, noopJob)
	r.srv.ApproveJob(r.admin, "doomed")
	b, err := r.srv.Submit(r.exp, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateQueued {
		t.Fatalf("state = %v", b.State())
	}
	// A bystander may not delete someone else's job.
	other, _ := r.srv.Users.Add("other", RoleExperimenter)
	if err := r.srv.DeleteJob(other, "doomed"); err == nil {
		t.Fatal("non-owner deleted the job")
	}
	if err := r.srv.DeleteJob(r.exp, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Job("doomed"); err == nil {
		t.Fatal("job still resolvable after delete")
	}
	if b.State() != StateFailure || !errors.Is(b.Err(), ErrJobDeleted) {
		t.Fatalf("queued build state=%v err=%v, want typed job-deleted failure", b.State(), b.Err())
	}
	if r.srv.QueueLength() != 0 {
		t.Fatalf("queue length = %d after delete", r.srv.QueueLength())
	}
}

// TestBuildTombstoneAfterRetention: finished builds are evicted after
// the retention window; their ids answer "expired", never-issued ids
// stay 404.
func TestBuildTombstoneAfterRetention(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Retention: time.Hour})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	srv.Nodes.Register(fakeVP{name: "vp1"})
	backedServer(srv).createJob(srv, admin, "j", Constraints{Node: "vp1"}, noopJob)
	b, err := srv.Submit(admin, "j")
	if err != nil || b.State() != StateSuccess {
		t.Fatalf("submit: %v, state %v", err, b.State())
	}
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		return Constraints{Node: spec.Node}, func(ctx *BuildContext, done func(error)) { done(nil) }, nil
	}))
	campID, _, err := srv.SubmitCampaign(admin, api.CampaignSpec{
		Experiments: []api.ExperimentSpec{{Node: "vp1", Device: "d", Workload: api.WorkloadSpec{Name: "x"}}}})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	getStatus := func(path string) (int, api.BuildStatus) {
		resp := get(t, ts.URL+path, admin.Token)
		defer resp.Body.Close()
		var st api.BuildStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}

	if code, st := getStatus(fmt.Sprintf("/api/v1/builds/%d", b.ID)); code != 200 || st.State != "success" {
		t.Fatalf("live status = %d %+v", code, st)
	}

	clk.Advance(2 * time.Hour) // past retention

	if _, err := srv.Build(b.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("Build(expired) = %v, want ErrExpired", err)
	}
	if _, err := srv.Build(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Build(unknown) = %v, want ErrNotFound", err)
	}
	if code, st := getStatus(fmt.Sprintf("/api/v1/builds/%d", b.ID)); code != 200 || st.State != api.StateExpired {
		t.Fatalf("expired status = %d %+v, want 200 expired marker", code, st)
	}
	if code, _ := getStatus("/api/v1/builds/999"); code != 404 {
		t.Fatalf("unknown build status = %d, want 404", code)
	}
	if code, _ := getStatus(fmt.Sprintf("/api/v1/builds/%d/artifacts", b.ID)); code != 404 {
		t.Fatalf("expired artifacts = %d, want 404", code)
	}
	// The campaign record was evicted with its last member: the store
	// does not grow forever, expired campaign ids answer typed, and
	// unknown ones stay 404.
	if _, err := srv.CampaignBuildIDs(campID); !errors.Is(err, ErrExpired) {
		t.Fatalf("CampaignBuildIDs(expired) = %v, want ErrExpired", err)
	}
	if _, err := srv.CampaignBuildIDs(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CampaignBuildIDs(unknown) = %v, want ErrNotFound", err)
	}
	if code, _ := getStatus(fmt.Sprintf("/api/v1/campaigns/%d", campID)); code != 404 {
		t.Fatalf("expired campaign status = %d, want 404", code)
	}
}

// TestAbortRunningBuildFinishesCanceled: an abort that lands mid-
// pipeline settles the build as aborted (with the canceled flag), not
// as an ordinary failure.
func TestAbortRunningBuildFinishesCanceled(t *testing.T) {
	r := newRig(t)
	r.job(r.admin, "long", Constraints{Node: "node1"},
		func(ctx *BuildContext, done func(error)) {
			ctx.OnCancel(func() {
				// Teardown takes a second of simulated time.
				r.clk.AfterFunc(time.Second, func() {
					done(errors.New("measurement torn down"))
				})
			})
			// Without a cancel the pipeline would run for an hour.
			r.clk.AfterFunc(time.Hour, func() { done(nil) })
		})
	b, err := r.srv.Submit(r.admin, "long")
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateRunning {
		t.Fatalf("state = %v", b.State())
	}
	if err := r.srv.Abort(r.admin, b.ID); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * time.Second)
	if b.State() != StateAborted {
		t.Fatalf("state = %v, want aborted (not failure)", b.State())
	}
	if !b.CancelRequested() || b.Err() == nil {
		t.Fatalf("canceled=%v err=%v", b.CancelRequested(), b.Err())
	}
}

// TestDrainAndRemoveNode: draining stops new dispatch but lets the
// running build finish; removal fails pinned queued builds typed and
// re-places fallback ones.
func TestDrainAndRemoveNode(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	exp, _ := srv.Users.Add("e", RoleExperimenter)
	if err := srv.RegisterNode(fakeVP{name: "vp1"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterNode(fakeVP{name: "vp2"}); err != nil {
		t.Fatal(err)
	}

	if err := srv.DrainNode(exp, "vp1"); err == nil {
		t.Fatal("experimenter drained a node")
	}

	running, _ := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "hang"}})
	if err := srv.DrainNode(admin, "vp1"); err != nil {
		t.Fatal(err)
	}
	if h := srv.NodeHealth("vp1").Health; h != HealthDraining {
		t.Fatalf("health = %v, want draining", h)
	}
	queued, _ := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "hang"}})
	if queued.State() != StateQueued {
		t.Fatalf("new build dispatched to a draining node (state %v)", queued.State())
	}
	clk.Advance(11 * time.Second)
	if running.State() != StateSuccess {
		t.Fatalf("running build on draining node = %v, want finished", running.State())
	}
	if err := srv.UndrainNode(admin, "vp1"); err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateRunning {
		t.Fatalf("undrain did not dispatch the queued build (state %v)", queued.State())
	}
	clk.Advance(11 * time.Second)

	// Removal: a pinned queued build fails typed, a fallback one moves.
	// Occupy vp2 so the next two builds stay queued.
	blocker, _ := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp2", Device: "dev-vp2", Workload: api.WorkloadSpec{Name: "hang"}})
	pinned2, _ := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp2", Device: "dev-vp2", Workload: api.WorkloadSpec{Name: "hang"}})
	movable, _ := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp2", Device: "dev-vp2",
		Workload:    api.WorkloadSpec{Name: "hang"},
		Constraints: api.ConstraintsSpec{AllowFallback: true}})
	if err := srv.RemoveNode(admin, "vp2"); err != nil {
		t.Fatal(err)
	}
	if pinned2.State() != StateFailure || !errors.Is(pinned2.Err(), ErrNodeLost) {
		t.Fatalf("pinned build after remove: state=%v err=%v", pinned2.State(), pinned2.Err())
	}
	if movable.State() != StateRunning || movable.NodeName() != "vp1" {
		t.Fatalf("fallback build after remove: state=%v node=%q, want running on vp1",
			movable.State(), movable.NodeName())
	}
	// The running build on the removed node finishes: removal is not a
	// lease break.
	clk.Advance(11 * time.Second)
	if blocker.State() != StateSuccess {
		t.Fatalf("running build on removed node = %v (%v), want success", blocker.State(), blocker.Err())
	}

	// A removed node that re-registers (plain legacy path) is back in
	// service — the removal tombstone must not pin it offline forever.
	if err := srv.Nodes.Register(fakeVP{name: "vp2"}); err != nil {
		t.Fatal(err)
	}
	if h := srv.NodeHealth("vp2").Health; h != HealthOnline {
		t.Fatalf("re-registered node health = %v, want online", h)
	}
	revived, _ := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp2", Device: "dev-vp2", Workload: api.WorkloadSpec{Name: "hang"}})
	if revived.State() != StateRunning {
		t.Fatalf("build on re-registered node = %v (%q), want running",
			revived.State(), revived.PendingReason())
	}
}

// TestDrainedNodeDyingStillBreaksLeases: draining labels an alive
// node; a node that dies mid-drain must still go offline and fail its
// running builds over — drain must not mask death.
func TestDrainedNodeDyingStillBreaksLeases(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	srv.RegisterNode(flk)
	srv.RegisterNode(fakeVP{name: "vp2"})

	b, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1",
		Workload:    api.WorkloadSpec{Name: "hang"},
		Constraints: api.ConstraintsSpec{AllowFallback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.DrainNode(admin, "vp1"); err != nil {
		t.Fatal(err)
	}
	// The Pi is unplugged before its running build finishes.
	clk.AfterFunc(time.Second, flk.Kill)
	clk.Advance(30 * time.Second)

	if h := srv.NodeHealth("vp1").Health; h != HealthOffline {
		t.Fatalf("dead draining node health = %v, want offline (drain must not mask death)", h)
	}
	if b.State() != StateSuccess || b.NodeName() != "vp2" || b.Retries() != 1 {
		t.Fatalf("build state=%v node=%q retries=%d (%v), want failover to vp2",
			b.State(), b.NodeName(), b.Retries(), b.Err())
	}
}

// TestNodeDetailEndpoint: the v1 node detail route serves the
// lifecycle snapshot.
func TestNodeDetailEndpoint(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	if err := srv.RegisterNode(flk); err != nil {
		t.Fatal(err)
	}
	srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "hang"}})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := get(t, ts.URL+"/api/v1/nodes/vp1", admin.Token)
	var detail api.NodeDetail
	json.NewDecoder(resp.Body).Decode(&detail)
	resp.Body.Close()
	if detail.Health != api.HealthOnline || !detail.Monitored || detail.RunningBuilds != 1 {
		t.Fatalf("detail = %+v", detail)
	}
	if len(detail.Devices) != 1 || detail.Devices[0] != "dev-vp1" {
		t.Fatalf("devices = %v", detail.Devices)
	}

	resp = get(t, ts.URL+"/api/v1/nodes/nope", admin.Token)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown node detail = %d, want 404", resp.StatusCode)
	}

	// Kill the node; the listing reflects it after the silence window.
	flk.Kill()
	clk.Advance(5 * time.Second)
	resp = get(t, ts.URL+"/api/v1/nodes", admin.Token)
	var infos []api.NodeInfo
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Health != api.HealthOffline {
		t.Fatalf("node list = %+v, want vp1 offline", infos)
	}
}

// TestConcurrentSubmitDuringFailover exercises the scheduler under
// -race: submissions, heartbeats and failovers interleave.
func TestConcurrentSubmitDuringFailover(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	srv.RegisterNode(flk)
	srv.RegisterNode(fakeVP{name: "vp2"})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := []string{"vp1", "vp2"}[i%2]
			srv.SubmitSpec(admin, api.ExperimentSpec{
				Node: node, Device: "dev-" + node,
				Workload:    api.WorkloadSpec{Name: "hang"},
				Constraints: api.ConstraintsSpec{AllowFallback: true},
			})
		}(i)
	}
	wg.Wait()
	clk.AfterFunc(3*time.Second, flk.Kill)
	clk.Advance(5 * time.Minute)
	if srv.Running() != 0 {
		t.Fatalf("builds still running after the drain window: %d", srv.Running())
	}
}

// listNode is a vantage point whose device list the test can change.
type listNode struct {
	name    string
	devices *string
}

func (n listNode) Name() string { return n.name }
func (n listNode) Ping() error  { return nil }
func (n listNode) Exec(cmd string, args ...string) (string, error) {
	if cmd == "list_devices" {
		return *n.devices, nil
	}
	return "", nil
}

// TestNodeVerbsAreDurable walks one node through every verb that has a
// record — and the three changes that had none before nodes kept their
// durable state as their store record: hosting time accruing between
// flushes (still none, by design), the device list refreshed by arming
// an armed node, and a removal ended by the bare registry — holding the
// store against the server after each.
func TestNodeVerbsAreDurable(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("a", RoleAdmin)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	devices := "dev-a"
	vp := listNode{name: "vp1", devices: &devices}

	must(srv.RegisterNode(vp))
	srv.SetNodeOwner("vp1", "bob")
	must(srv.DrainNode(admin, "vp1"))
	clk.Advance(10 * time.Second)
	checkLifecycle(t, srv, "owned, drained, 10 s of hosting accrued")

	devices = "dev-a\ndev-b"
	must(srv.MonitorNode("vp1"))
	if got := srv.NodeHealth("vp1"); !got.Draining || len(got.Devices) != 2 {
		t.Fatalf("armed again with a second device: %+v, want both devices and the drain kept", got)
	}
	checkLifecycle(t, srv, "device list refreshed")

	clk.Advance(contributionFlushEvery)
	if srv.Ledger.Balance("bob") <= 0 {
		t.Fatal("15 minutes of hosting were not credited")
	}
	checkLifecycle(t, srv, "hosting flushed")

	must(srv.UndrainNode(admin, "vp1"))
	must(srv.RemoveNode(admin, "vp1"))
	checkLifecycle(t, srv, "removed")
	must(srv.Nodes.Register(vp))
	if got := srv.NodeHealth("vp1"); got.Health != HealthOnline || got.Removed || got.Monitored {
		t.Fatalf("back through the bare registry: %+v, want online, unmonitored, no tombstone", got)
	}
	checkLifecycle(t, srv, "removal ended by the registry")
}

// CancelRequested reports whether an explicit cancel was requested
// (Abort, or a pending cancel armed before the pipeline registered its
// hook).
func (b *Build) CancelRequested() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Canceled
}
