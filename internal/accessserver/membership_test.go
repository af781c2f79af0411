package accessserver

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// TestRegistryChangesReachTheCensus: registering and unregistering are
// transitions, so what the server serves about a node is right the moment
// Nodes.Register or Nodes.Remove returns — no other transition, no Kick.
// Each case asserts through the lock-free read routes first (a locked
// status read used to repair the census as a side effect), then holds the
// census against the oracle.
func TestRegistryChangesReachTheCensus(t *testing.T) {
	type rig struct {
		clk   *simclock.Virtual
		srv   *Server
		admin *User
		wal   string // store directory of a durable case
	}
	// detail is GET /api/v1/nodes/{name}: the status code and the body.
	detail := func(t *testing.T, r *rig, name string) (int, api.NodeDetail) {
		t.Helper()
		req := httptest.NewRequest("GET", "/api/v1/nodes/"+name, nil)
		req.Header.Set("Authorization", "Bearer "+r.admin.Token)
		rec := httptest.NewRecorder()
		r.srv.Handler().ServeHTTP(rec, req)
		var d api.NodeDetail
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, d
	}
	// advertised is the health peerCensus announces for name, "" if none.
	advertised := func(r *rig, name string) string {
		for _, n := range r.srv.peerCensus(r.clk.Now()) {
			if n.Name == name {
				return n.Health
			}
		}
		return ""
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		durable bool
		setup   func(t *testing.T, r *rig)
		change  func(r *rig) error
		check   func(t *testing.T, r *rig)
	}{
		{
			name:   "plain Register",
			setup:  func(*testing.T, *rig) {},
			change: func(r *rig) error { return r.srv.Nodes.Register(fakeVP{name: "vp"}) },
			check: func(t *testing.T, r *rig) {
				if _, ok := r.srv.reads.node("vp"); !ok {
					t.Error("no census row is served for the registered node")
				}
				if code, d := detail(t, r, "vp"); code != http.StatusOK || d.Health != api.HealthOnline {
					t.Errorf("GET /nodes/vp answers %d %q, want 200 online", code, d.Health)
				}
				if h := advertised(r, "vp"); h != api.HealthOnline {
					t.Errorf("peers are told %q about the registered node, want online", h)
				}
			},
		},
		{
			name: "plain Remove of an unmonitored node",
			setup: func(t *testing.T, r *rig) {
				must(t, r.srv.Nodes.Register(fakeVP{name: "vp"}))
				r.srv.Kick()
			},
			change: func(r *rig) error { return r.srv.Nodes.Remove("vp") },
			check: func(t *testing.T, r *rig) {
				if h := advertised(r, "vp"); h != "" {
					t.Errorf("peers are still told the dropped node is %s", h)
				}
				if code, _ := detail(t, r, "vp"); code != http.StatusNotFound {
					t.Errorf("GET /nodes/vp answers %d, want 404", code)
				}
			},
		},
		{
			name: "plain Remove of a monitored node",
			setup: func(t *testing.T, r *rig) {
				must(t, r.srv.RegisterNode(fakeVP{name: "vp"}))
				if _, armed := r.clk.NextDeadline(); !armed {
					t.Fatal("a monitored node has no probe on the clock")
				}
			},
			change: func(r *rig) error { return r.srv.Nodes.Remove("vp") },
			check: func(t *testing.T, r *rig) {
				if code, d := detail(t, r, "vp"); code != http.StatusOK || d.Health != api.HealthOffline {
					t.Errorf("GET /nodes/vp answers %d %q, want 200 offline", code, d.Health)
				}
				if h := advertised(r, "vp"); h != api.HealthOffline {
					t.Errorf("peers are told %q about the dropped node, want offline", h)
				}
				if h := r.srv.NodeHealth("vp").Health; h != HealthOffline {
					t.Errorf("NodeHealth reads %s, want offline", h)
				}
				// A stopped timer sits in the clock's queue until its
				// deadline passes; after that nothing may be left.
				r.clk.Advance(faultCfg().HeartbeatEvery)
				if at, armed := r.clk.NextDeadline(); armed {
					t.Errorf("the clock still holds a probe of the dropped node, due %s", at)
				}
			},
		},
		{
			name:    "re-Register of a name RemoveNode tombstoned",
			durable: true,
			setup: func(t *testing.T, r *rig) {
				must(t, r.srv.RegisterNode(fakeVP{name: "vp"}))
				must(t, r.srv.RemoveNode(r.admin, "vp"))
			},
			change: func(r *rig) error { return r.srv.Nodes.Register(fakeVP{name: "vp"}) },
			check: func(t *testing.T, r *rig) {
				if code, d := detail(t, r, "vp"); code != http.StatusOK || d.Health != api.HealthOnline || d.Monitored {
					t.Errorf("GET /nodes/vp answers %d %q (monitored %v), want 200 online, unmonitored", code, d.Health, d.Monitored)
				}
				if h := advertised(r, "vp"); h != api.HealthOnline {
					t.Errorf("peers are told %q about the node that came back, want online", h)
				}
				disk, err := store.Open(r.wal)
				must(t, err)
				defer disk.Close()
				_, recs := disk.Load()
				last := recs[len(recs)-1]
				if last.T != store.TNodeMonitored || last.Node == nil || last.Node.Name != "vp" || last.Node.Monitored || last.Node.Removed {
					t.Errorf("the WAL ends with %+v (node %+v), want the record that ends vp's removal", last, last.Node)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &rig{clk: simclock.NewVirtual()}
			r.srv = New(r.clk, faultCfg())
			r.admin, _ = r.srv.Users.Add("root", RoleAdmin)
			if tc.durable {
				st, err := store.Open(t.TempDir())
				must(t, err)
				defer st.Close()
				_, err = r.srv.AttachStore(st)
				must(t, err)
				r.wal = st.Dir()
			}
			tc.setup(t, r)
			must(t, tc.change(r))
			tc.check(t, r)
			checkLifecycle(t, r.srv, "right after the change")
		})
	}
}

// TestMembershipChurn hammers the node table from eight goroutines —
// plain and monitored registration, plain and admin removal, over a pool
// of 16 names — while a campaign pinned to those names drains and four
// readers poll the node routes. Under -race this pins that the one table
// has one lock; at quiescence the five oracles must be clean, and with
// the writers gone the readers must not touch the scheduler lock, for
// monitored and unmonitored nodes alike.
func TestMembershipChurn(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, faultCfg())
	tb := backedServer(srv)
	tb.handle("tick", func(ctx *BuildContext, done func(error)) {
		clk.AfterFunc(time.Second, func() { done(nil) })
	})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("root", RoleAdmin)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const pool = 16
	name := func(i int) string { return fmt.Sprintf("vp%02d", i%pool) }
	var camp api.CampaignSpec
	for i := 0; i < 4*pool; i++ {
		camp.Experiments = append(camp.Experiments, api.ExperimentSpec{
			Node: name(i), Device: "dev-" + name(i),
			Workload:    api.WorkloadSpec{Name: "tick"},
			Constraints: api.ConstraintsSpec{AllowFallback: i%2 == 0},
		})
	}
	_, builds, err := srv.SubmitCampaign(admin, camp)
	if err != nil {
		t.Fatal(err)
	}

	// poll reads both node routes once; a detail 404 is a legal answer
	// for a name that is not a vantage point right now.
	poll := func(i int) error {
		for _, path := range []string{"/api/v1/nodes", "/api/v1/nodes/" + name(i)} {
			req, _ := http.NewRequest("GET", ts.URL+path, nil)
			req.Header.Set("Authorization", "Bearer "+admin.Token)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
			}
		}
		return nil
	}
	readers := func(stop <-chan struct{}, rounds int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; rounds == 0 || i < rounds; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := poll(r + i); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		return &wg
	}

	stop := make(chan struct{})
	reading := readers(stop, 0)
	// Every write reports in, and one driver paces the timeline —
	// heartbeats, pipelines, leases — to the writers: half a second every
	// eighth write, so the campaign drains during the churn instead of
	// aging out before it.
	ops := make(chan struct{}, 64)
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				// Errors are the point of the exercise as much as successes:
				// a verb that lost its race answers ErrConflict or ErrNotFound.
				n := name(rng.Intn(pool))
				switch rng.Intn(4) {
				case 0:
					srv.Nodes.Register(fakeVP{name: n})
				case 1:
					srv.Nodes.Remove(n)
				case 2:
					srv.MonitorNode(n)
				case 3:
					srv.RemoveNode(admin, n)
				}
				ops <- struct{}{}
			}
		}(w)
	}
	go func() { writers.Wait(); close(ops) }()
	n := 0
	for range ops {
		if n++; n%8 == 0 {
			clk.Advance(500 * time.Millisecond)
			srv.Kick()
		}
	}
	close(stop)
	reading.Wait()

	// Quiescence: every name comes back, every other one monitored, and
	// the campaign drains (or ages out what a removal left unplaceable).
	for i := 0; i < pool; i++ {
		srv.Nodes.Register(fakeVP{name: name(i)})
		if i%2 == 0 {
			if err := srv.MonitorNode(name(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Kick()
	clk.Advance(2 * faultCfg().PendingTimeout)
	ran := 0
	for _, b := range builds {
		switch b.State() {
		case StateQueued, StateRunning:
			t.Fatalf("build %d is still %s after the churn (%s)", b.ID, b.State(), b.PendingReason())
		case StateSuccess:
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no campaign build ran: the churn never had a node up under the queue")
	}
	checkLifecycle(t, srv, "after the churn")
	if err := srv.QueueDrift(); err != nil {
		t.Fatal(err)
	}

	before := srv.SchedLockAcquisitions()
	readers(nil, 50).Wait()
	if after := srv.SchedLockAcquisitions(); after != before {
		t.Fatalf("the node routes took the scheduler lock %d times with no writer running, want 0", after-before)
	}
}
