package accessserver

import (
	"sync"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// TestCensusMatchesOracleAfterRecovery crashes a server mid-campaign —
// builds running, queued behind a drained node and queued for a removed
// one — and requires the census a recovered server serves to equal a
// full rebuild, and its lifecycle bookkeeping a recount over its builds,
// straight after AttachStore and again after every clock deadline of the
// re-drain.
func TestCensusMatchesOracleAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*simclock.Virtual, *Server, *store.Store) {
		clk := simclock.NewVirtual()
		srv := New(clk, Config{Executors: 2, HeartbeatEvery: 5 * time.Second, PendingTimeout: 10 * time.Minute})
		srv.SetSpecBackend(slowBackend(clk, 2*time.Minute))
		for _, n := range []string{"node1", "node2"} {
			if err := srv.RegisterNode(staticNode{name: n}); err != nil {
				t.Fatal(err)
			}
		}
		// node3 enters through the bare registry: a row with no lifecycle
		// record behind it.
		if err := srv.Nodes.Register(staticNode{name: "node3"}); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		return clk, srv, st
	}

	clk, srv, st := boot()
	checkLifecycle(t, srv, "first boot")
	admin, err := srv.Users.Add("alice", RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterNode(staticNode{name: "gone"}); err != nil {
		t.Fatal(err)
	}
	var specs []api.ExperimentSpec
	for _, n := range []string{"node1", "node2", "node3", "gone"} {
		for _, d := range []string{"dev1", "dev2", "dev3"} {
			spec := testSpec(n, d)
			spec.Constraints.AllowFallback = n == "gone"
			specs = append(specs, spec)
		}
	}
	if _, _, err := srv.SubmitCampaign(admin, api.CampaignSpec{Experiments: specs}); err != nil {
		t.Fatal(err)
	}
	if err := srv.DrainNode(admin, "node2"); err != nil {
		t.Fatal(err)
	}
	if err := srv.RemoveNode(admin, "gone"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	checkLifecycle(t, srv, "before the crash")
	if srv.Running() != 2 || srv.QueueLength() == 0 {
		t.Fatalf("pre-crash: %d running, %d queued; want 2 running and a backlog", srv.Running(), srv.QueueLength())
	}
	st.Close() // crash

	clk2, srv2, st2 := boot()
	defer st2.Close()
	checkLifecycle(t, srv2, "after AttachStore")
	if e, ok := srv2.reads.node("node2"); !ok || !e.Draining || e.Queued != 3 {
		t.Fatalf("recovered node2 row = %+v, want draining with 3 queued", e)
	}
	if e, ok := srv2.reads.node("gone"); !ok || !e.Removed {
		t.Fatalf("recovered row of the removed node = %+v, want a tombstone", e)
	}
	admin2, err := srv2.Users.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.UndrainNode(admin2, "node2"); err != nil {
		t.Fatal(err)
	}
	for srv2.QueueLength() > 0 || srv2.Running() > 0 {
		next, ok := clk2.NextDeadline()
		if !ok {
			t.Fatal("stalled: no pending timers")
		}
		clk2.RunUntil(next)
		checkLifecycle(t, srv2, "re-drain at "+clk2.Now().Sub(simclock.Epoch).String())
	}
}

// TestEditJobRepublishesCensus: a build is counted against the node its
// own revision prefers. Editing the job onto another node leaves the
// builds already queued where they are — they run what was approved —
// and the next submit counts against the new node.
func TestEditJobRepublishesCensus(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 1})
	tb := backedServer(srv)
	for _, n := range []string{"node1", "node2"} {
		if err := srv.RegisterNode(staticNode{name: n}); err != nil {
			t.Fatal(err)
		}
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	run := func(ctx *BuildContext, done func(error)) {
		clk.AfterFunc(time.Minute, func() { done(nil) })
	}
	if _, err := tb.createJob(srv, admin, "nightly", Constraints{Node: "node1"}, run); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Submit(admin, "nightly"); err != nil {
			t.Fatal(err)
		}
	}
	queued := func(name string) int {
		e, ok := srv.reads.node(name)
		if !ok {
			t.Fatalf("no census row for %s", name)
		}
		return e.Queued
	}
	if queued("node1") != 3 || queued("node2") != 0 {
		t.Fatalf("before the edit: node1 %d, node2 %d queued; want 3 and 0", queued("node1"), queued("node2"))
	}
	if err := srv.EditJob(admin, "nightly", jobSpec("nightly", Constraints{Node: "node2"})); err != nil {
		t.Fatal(err)
	}
	if queued("node1") != 3 || queued("node2") != 0 {
		t.Fatalf("after the edit: node1 %d, node2 %d queued; want the queued builds to stay, 3 and 0", queued("node1"), queued("node2"))
	}
	if _, err := srv.Submit(admin, "nightly"); err != nil {
		t.Fatal(err)
	}
	if queued("node1") != 3 || queued("node2") != 1 {
		t.Fatalf("after the next submit: node1 %d, node2 %d queued; want 3 and 1", queued("node1"), queued("node2"))
	}
	if got := srv.NodeHealth("node2").Queued; got != 1 {
		t.Fatalf("NodeHealth(node2).Queued = %d, want 1", got)
	}
	if err := srv.CensusDrift(); err != nil {
		t.Fatal(err)
	}
}

// TestCensusPublishIsIncremental pins the cost model: a heartbeat
// replaces exactly one row and shares every other with the previous
// snapshot, and a publish with nothing marked stores nothing.
func TestCensusPublishIsIncremental(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := srv.RegisterNode(staticNode{name: n}); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.reads.nodeList()
	srv.Kick() // a drain pass over an empty queue marks nothing
	if after := srv.reads.nodeList(); &after[0] != &before[0] {
		t.Fatal("a publish with no marked row swapped the census")
	}
	srv.Heartbeat("c")
	after := srv.reads.nodeList()
	if len(after) != len(before) {
		t.Fatalf("census went from %d to %d rows on a heartbeat", len(before), len(after))
	}
	for i := range after {
		if same := after[i] == before[i]; same != (after[i].Name != "c") {
			t.Fatalf("row %q: shared with the previous snapshot = %v", after[i].Name, same)
		}
	}
	if before[2].Beats+1 != after[2].Beats {
		t.Fatalf("row c beats %d -> %d, want one more", before[2].Beats, after[2].Beats)
	}
}

// TestSubmitStartsAtSubmissionInstant is the regression test for the
// window between a submission's enqueue and its dispatch: a driver
// stepping the virtual clock in that window used to move the clock to an
// unrelated deadline (a heartbeat), so a build that could start at once
// started later than it was submitted. Every submission below goes to an
// idle node while a second goroutine steps the clock as fast as it can;
// each build must start at the instant it was queued.
func TestSubmitStartsAtSubmissionInstant(t *testing.T) {
	clk := simclock.NewVirtual()
	const nodes = 8
	srv := New(clk, Config{Executors: nodes, HeartbeatEvery: time.Second})
	tb := backedServer(srv)
	tb.handle("idle", noopJob) // testSpec's workload
	names := make([]string, nodes)
	for i := range names {
		names[i] = "node" + string(rune('a'+i))
		if err := srv.RegisterNode(staticNode{name: names[i]}); err != nil {
			t.Fatal(err)
		}
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	if _, err := tb.createJob(srv, admin, "sync", Constraints{Node: names[0], Device: "dev2"}, noopJob); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Step() // heartbeats re-arm themselves: there is always a deadline
			}
		}
	}()
	defer func() {
		close(stop)
		stepper.Wait()
	}()

	late := func(how string, b *Build) {
		t.Helper()
		if b.State() != StateSuccess {
			t.Fatalf("%s build %d is %s, want success (synchronous pipeline on an idle node)", how, b.ID, b.State())
		}
		if wait := b.QueueTime(); wait != 0 {
			t.Fatalf("%s build %d started %s after its submission instant", how, b.ID, wait)
		}
	}
	for i := 0; i < 3000; i++ {
		node := names[i%nodes]
		switch i % 3 {
		case 0:
			b, err := srv.SubmitSpec(admin, testSpec(node, "dev1"))
			if err != nil {
				t.Fatal(err)
			}
			late("spec", b)
		case 1:
			_, builds, err := srv.SubmitCampaign(admin, api.CampaignSpec{Experiments: []api.ExperimentSpec{
				testSpec(node, "dev1"), testSpec(names[(i+1)%nodes], "dev1"),
			}})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range builds {
				late("campaign", b)
			}
		default:
			b, err := srv.Submit(admin, "sync")
			if err != nil {
				t.Fatal(err)
			}
			late("job", b)
		}
	}
}
