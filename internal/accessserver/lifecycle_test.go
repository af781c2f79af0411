package accessserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// waitFeed blocks until b's feed satisfies done (called with the events
// so far and whether the feed closed), failing the test after 5 s.
func waitFeed(t *testing.T, b *Build, done func(evs []api.BuildEvent, closed bool) bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		evs, closed, changed := b.Feed().EventsSince(0)
		if done(evs, closed) {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("build %d: feed never got there (%d events, closed %v)", b.ID, len(evs), closed)
		}
	}
}

func checkLifecycle(t *testing.T, srv *Server, when string) {
	t.Helper()
	if err := srv.LifecycleDrift(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := srv.CensusDrift(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := srv.DurableDrift(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := srv.PlacementDrift(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestRoutedBuildLeavesLocalCensusAlone: a build routed to a peer's node
// counts on no local node record, whatever the peer's node is called.
// Local node1 is draining with one build running; a peer advertises a
// node1 of its own, a second build routes there and succeeds, a third
// loses its relay — and local node1 still runs one build, with no
// failover held against it.
func TestRoutedBuildLeavesLocalCensusAlone(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 3})
	srv.SetSpecBackend(slowBackend(clk, 2*time.Minute))
	if err := srv.RegisterNode(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	srv.SetPeerRelay(func(_ context.Context, _, _ string, spec api.ExperimentSpec, _ api.RelaySink) (*api.BuildStatus, error) {
		if spec.Device == "dev3" {
			return nil, errors.New("connection reset")
		}
		return &api.BuildStatus{ID: 7, State: StateSuccess.String()}, nil
	})

	local, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.DrainNode(admin, "node1"); err != nil {
		t.Fatal(err)
	}
	srv.Cluster().Announce(api.PeerAnnounce{Name: "west", URL: "http://west.example", Nodes: []api.PeerNode{
		{Name: "node1", Health: api.HealthOnline, Devices: []string{"dev2", "dev3"}},
	}}, clk.Now())

	routed, err := srv.SubmitSpec(admin, testSpec("node1", "dev2"))
	if err != nil {
		t.Fatal(err)
	}
	waitFeed(t, routed, func(_ []api.BuildEvent, closed bool) bool { return closed })
	if routed.State() != StateSuccess || routed.RoutedVia() != "west" {
		t.Fatalf("routed build: %s via %q (%v), want success via west", routed.State(), routed.RoutedVia(), routed.Err())
	}
	if st := srv.NodeHealth("node1"); local.State() != StateRunning || st.Running != 1 {
		t.Fatalf("local build is %s, node1 counts %d running: want running and 1", local.State(), st.Running)
	}
	checkLifecycle(t, srv, "after the routed build settled")

	lost, err := srv.SubmitSpec(admin, testSpec("node1", "dev3"))
	if err != nil {
		t.Fatal(err)
	}
	waitFeed(t, lost, func(evs []api.BuildEvent, _ bool) bool {
		return len(evs) > 0 && evs[len(evs)-1].Phase == api.EventFailover
	})
	if st := srv.NodeHealth("node1"); st.Running != 1 || st.Failovers != 0 {
		t.Fatalf("after a peer lost a build, local node1 counts %d running and %d failovers: want 1 and 0", st.Running, st.Failovers)
	}
	checkLifecycle(t, srv, "after the relay broke")
}

// lostBuild runs one build on a monitored node that then dies, and
// returns it at the instant its lease broke — reclaimed, before any
// retry backoff has elapsed.
func lostBuild(t *testing.T, cfg Config, beforeLoss func(*Server, *User, *Build)) (*simclock.Virtual, *Server, *User, *Build) {
	t.Helper()
	clk := simclock.NewVirtual()
	srv := New(clk, cfg)
	srv.SetSpecBackend(hangingBackend{clk: clk})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	flk := NewFlakyNode(fakeVP{name: "vp1"})
	if err := srv.RegisterNode(flk); err != nil {
		t.Fatal(err)
	}
	b, err := srv.SubmitSpec(admin, api.ExperimentSpec{
		Node: "vp1", Device: "dev-vp1", Workload: api.WorkloadSpec{Name: "hang"},
	})
	if err != nil {
		t.Fatal(err)
	}
	flk.Kill()
	if beforeLoss != nil {
		beforeLoss(srv, admin, b)
	}
	// Step to the lease break (one offline window after the last beat)
	// and no further.
	for b.Attempts() == 1 && b.State() == StateRunning {
		next, ok := clk.NextDeadline()
		if !ok {
			t.Fatal("stalled before the lease broke")
		}
		clk.RunUntil(next)
	}
	return clk, srv, admin, b
}

// TestCancelThenAttemptLostAborts: a running build whose owner asked to
// cancel and whose node is then lost settles aborted at the lease break
// — not queued for a retry it would abort a backoff later, and not
// failed node_lost — with retry budget left or without.
func TestCancelThenAttemptLostAborts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retries int
	}{{"budget left", 2}, {"budget spent", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultCfg()
			cfg.MaxRetries = tc.retries
			_, srv, _, b := lostBuild(t, cfg, func(srv *Server, admin *User, b *Build) {
				// hangingBackend registers no cancel hook: the flag arms and
				// the build keeps running.
				if err := srv.Abort(admin, b.ID); err != nil {
					t.Fatal(err)
				}
			})
			if b.State() != StateAborted || b.Err() != nil || b.Retries() != 0 {
				t.Fatalf("at the lease break: %s, err %v, %d retries; want aborted, no error, no retry", b.State(), b.Err(), b.Retries())
			}
			if n := srv.QueueLength(); n != 0 {
				t.Fatalf("%d builds still count as queued", n)
			}
			checkLifecycle(t, srv, "after the lease break")
		})
	}
}

// TestAbortInBackoffSettlesNow: aborting a build that sits out a
// failover backoff settles it on the spot and disarms its retry timer,
// instead of leaving a flag for the timer to find.
func TestAbortInBackoffSettlesNow(t *testing.T) {
	clk, srv, admin, b := lostBuild(t, faultCfg(), nil)
	if b.State() != StateQueued || b.Retries() != 1 {
		t.Fatalf("after the lease break: %s with %d retries, want queued in backoff with 1", b.State(), b.Retries())
	}
	checkLifecycle(t, srv, "in backoff")
	if err := srv.Abort(admin, b.ID); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateAborted || srv.QueueLength() != 0 {
		t.Fatalf("after Abort: %s, %d queued; want aborted and nothing queued", b.State(), srv.QueueLength())
	}
	checkLifecycle(t, srv, "after Abort")
	clk.Advance(time.Minute) // past the backoff: nothing left to fire
	if b.State() != StateAborted || b.Attempts() != 1 {
		t.Fatalf("a minute later: %s after %d attempts, want still aborted after 1", b.State(), b.Attempts())
	}
	checkLifecycle(t, srv, "after the backoff would have elapsed")
	if err := srv.Abort(admin, b.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("second Abort: %v, want a conflict", err)
	}
}
