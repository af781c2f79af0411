package accessserver

import (
	"fmt"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// verdictRig is one node, x, with build a running on its device dev and
// build b queued behind a's lock — behind a placement verdict pinned to x
// that stands from pass to pass, which is the thing the cases of
// TestVerdictFallsWhenWhatItReadChanges then knock over. a was claimed
// while x was still unmonitored, so it has no lease: x can fall silent
// without the lease watchdog firing, and the clock is left as the only
// thing that moves.
type verdictRig struct {
	clk     *simclock.Virtual
	srv     *Server
	admin   *User
	x       *FlakyNode
	devices string // what x answers list_devices with
	a, b    *Build
}

const waitingForDev = "waiting for x/dev"

func newVerdictRig(t *testing.T, fallback bool) *verdictRig {
	t.Helper()
	r := &verdictRig{clk: simclock.NewVirtual(), devices: "dev"}
	cfg := faultCfg()
	cfg.Executors = 4
	r.srv = New(r.clk, cfg)
	r.srv.SetSpecBackend(slowBackend(r.clk, 30*time.Second))
	r.admin, _ = r.srv.Users.Add("root", RoleAdmin)
	r.x = NewFlakyNode(listNode{name: "x", devices: &r.devices})
	if err := r.srv.Nodes.Register(r.x); err != nil {
		t.Fatal(err)
	}
	r.a = r.submit(t, "x", "dev", fallback)
	if err := r.srv.MonitorNode("x"); err != nil {
		t.Fatal(err)
	}
	r.b = r.submit(t, "x", "dev", fallback)
	if r.a.State() != StateRunning || r.b.PendingReason() != waitingForDev {
		t.Fatalf("a is %s, b waits with %q; want a running and b %q", r.a.State(), r.b.PendingReason(), waitingForDev)
	}
	// The verdict must be standing, or the cases knock over nothing: a
	// pass over the unchanged queue computes no placement.
	before := r.evals()
	r.srv.Kick()
	r.srv.mu.Lock()
	c := r.b.class
	standing := c != nil && c.rec != nil && r.srv.verdictValidLocked(c, r.clk.Now())
	r.srv.mu.Unlock()
	if spent := r.evals() - before; spent != 0 || !standing {
		t.Fatalf("an idle pass computed %d placements (pinned verdict standing: %v), want none", spent, standing)
	}
	return r
}

func (r *verdictRig) submit(t *testing.T, node, device string, fallback bool) *Build {
	t.Helper()
	spec := testSpec(node, device)
	spec.Constraints.AllowFallback = fallback
	b, err := r.srv.SubmitSpec(r.admin, spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (r *verdictRig) evals() int64 {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	return r.srv.m.placementEvals
}

func (r *verdictRig) version() uint64 {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	return r.srv.nodeRecs["x"].version
}

// TestVerdictFallsWhenWhatItReadChanges: a cached verdict must not
// outlive anything it read. Every step changes one thing a verdict pinned
// to x depends on, runs one pass, and requires the label a status poller
// then reads for b to be the one an uncached pass would write — first
// away from "waiting for x/dev", then back to it.
func TestVerdictFallsWhenWhatItReadChanges(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	type step struct {
		do   func(t *testing.T, r *verdictRig)
		want string // b's pending reason after do and one pass
	}
	cases := []struct {
		name     string
		fallback bool
		steps    []step
	}{
		{name: "the clock alone", steps: []step{
			// x falls silent. Nothing happens — no beat, no lease, no verb,
			// the node's version never moves — except that time passes.
			{func(t *testing.T, r *verdictRig) {
				r.x.Kill()
				v := r.version()
				r.clk.Advance(faultCfg().SuspectAfter)
				if r.version() != v {
					t.Fatal("something touched x while it was silent: the step no longer tests the clock alone")
				}
			}, `node "x" is suspect`},
			{func(t *testing.T, r *verdictRig) {
				v := r.version()
				r.clk.Advance(faultCfg().OfflineAfter - faultCfg().SuspectAfter)
				if r.version() != v {
					t.Fatal("something touched x while it was silent: the step no longer tests the clock alone")
				}
			}, `node "x" is offline`},
			{func(t *testing.T, r *verdictRig) {
				r.x.Revive()
				r.srv.Heartbeat("x")
			}, waitingForDev},
		}},
		{name: "drain and undrain", steps: []step{
			{func(t *testing.T, r *verdictRig) { must(t, r.srv.DrainNode(r.admin, "x")) }, `node "x" is draining`},
			{func(t *testing.T, r *verdictRig) { must(t, r.srv.UndrainNode(r.admin, "x")) }, waitingForDev},
		}},
		{name: "unregister and register", steps: []step{
			{func(t *testing.T, r *verdictRig) { must(t, r.srv.Nodes.Remove("x")) }, `waiting for node "x" to register`},
			{func(t *testing.T, r *verdictRig) { must(t, r.srv.Nodes.Register(r.x)) }, waitingForDev},
		}},
		{name: "RemoveNode and re-Register of the tombstone", fallback: true, steps: []step{
			{func(t *testing.T, r *verdictRig) { must(t, r.srv.RemoveNode(r.admin, "x")) }, `node "x" was removed; no fallback node available`},
			{func(t *testing.T, r *verdictRig) { must(t, r.srv.Nodes.Register(r.x)) }, waitingForDev},
		}},
		{name: "MonitorNode with a new device list", fallback: true, steps: []step{
			// A fallback build for a node nobody registers can only use what
			// x lists; its verdict is not pinned and must be recomputed every
			// pass, so it sees the new device at once.
			{func(t *testing.T, r *verdictRig) {
				c := r.submit(t, "ghost", "dev2", true)
				if got, want := c.PendingReason(), `waiting for node "ghost" to register; no fallback node available`; got != want {
					t.Fatalf("the fallback build waits with %q, want %q", got, want)
				}
				r.devices = "dev\ndev2"
				must(t, r.srv.MonitorNode("x"))
				r.srv.Kick()
				if c.State() != StateRunning || c.NodeName() != "x" {
					t.Fatalf("the fallback build is %s on %q (%s), want running on x's new device", c.State(), c.NodeName(), c.PendingReason())
				}
			}, waitingForDev},
		}},
		{name: "SetPlacer", steps: []step{
			// The score a pinned build is claimed with comes from the placer
			// installed when it is claimed, not from one that judged its class
			// while it waited.
			{func(t *testing.T, r *verdictRig) {
				r.srv.SetPlacer(constPlacer(42))
				r.clk.Advance(30 * time.Second) // a finishes, b starts
				if r.b.State() != StateRunning || r.b.PlacementScore() != 42 {
					t.Fatalf("b is %s with placement score %v, want running with the new placer's 42", r.b.State(), r.b.PlacementScore())
				}
			}, ""},
		}},
		{name: "the recovery merge", steps: []step{
			// The store remembers x as drained by an earlier life of the
			// server; AttachStore merges that into the record this boot made.
			{func(t *testing.T, r *verdictRig) {
				dir := t.TempDir()
				earlier := New(simclock.NewVirtual(), faultCfg())
				st, err := store.Open(dir)
				must(t, err)
				_, err = earlier.AttachStore(st)
				must(t, err)
				admin, _ := earlier.Users.Add("root", RoleAdmin)
				must(t, earlier.RegisterNode(r.x))
				must(t, earlier.DrainNode(admin, "x"))
				must(t, st.Close())

				st, err = store.Open(dir)
				must(t, err)
				t.Cleanup(func() { st.Close() })
				_, err = r.srv.AttachStore(st)
				must(t, err)
			}, `node "x" is draining`},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newVerdictRig(t, tc.fallback)
			for i, st := range tc.steps {
				st.do(t, r)
				r.srv.Kick()
				if got := r.b.PendingReason(); got != st.want {
					t.Fatalf("step %d: b waits with %q, want %q", i+1, got, st.want)
				}
				checkLifecycle(t, r.srv, fmt.Sprintf("step %d", i+1))
			}
		})
	}
}

type constPlacer float64

func (p constPlacer) Score(PlacementCandidate) float64 { return float64(p) }

// TestLockConflictIsOneLookup: with the lock table keyed by lock name,
// whether a key conflicts is decided by that name's entry and nothing
// else — no walk over what is held elsewhere, however much that is. One
// whole-node build and one device build hold their nodes while N device
// builds run on N other nodes; every conflict the table knows must come
// out right, and come out the same from a table stripped of every other
// name.
func TestLockConflictIsOneLookup(t *testing.T) {
	for _, others := range []int{1, 512} {
		clk := simclock.NewVirtual()
		srv := New(clk, Config{Executors: others + 10})
		srv.SetSpecBackend(slowBackend(clk, time.Minute))
		admin, _ := srv.Users.Add("root", RoleAdmin)
		names := []string{"w", "d"}
		for i := 0; i < others; i++ {
			names = append(names, fmt.Sprintf("other%03d", i))
		}
		for _, n := range names {
			if err := srv.Nodes.Register(staticNode{name: n}); err != nil {
				t.Fatal(err)
			}
		}
		specs := []api.ExperimentSpec{testSpec("w", ""), testSpec("d", "dev1")}
		for _, n := range names[2:] {
			specs = append(specs, testSpec(n, "dev1"))
		}
		// Queued behind them: the whole of w again, a device of w, the whole
		// of d, d's held device; d's other device is free.
		specs = append(specs, testSpec("w", ""), testSpec("w", "dev1"), testSpec("d", ""), testSpec("d", "dev1"), testSpec("d", "dev2"))
		var builds []*Build
		for _, spec := range specs {
			b, err := srv.SubmitSpec(admin, spec)
			if err != nil {
				t.Fatal(err)
			}
			builds = append(builds, b)
		}
		tail := builds[len(builds)-5:]
		for i, want := range []string{"waiting for w", "waiting for w/dev1", "waiting for d", "waiting for d/dev1", ""} {
			if got := tail[i].PendingReason(); got != want {
				t.Errorf("%d other nodes busy: queued build %d waits with %q, want %q", others, i, got, want)
			}
		}
		if got := srv.Running(); got != others+3 {
			t.Fatalf("%d builds running, want %d", got, others+3)
		}

		srv.mu.Lock()
		keys := []lockKey{{"w", ""}, {"w", "dev1"}, {"d", ""}, {"d", "dev1"}, {"d", "dev2"}, {"d", "dev3"}, {"free", ""}, {"free", "dev1"}}
		want := []bool{true, true, true, true, true, false, false, false}
		full := srv.locks
		if len(full) != others+2 {
			t.Errorf("the lock table has %d names, want one per busy node, %d", len(full), others+2)
		}
		for pass, table := range []map[string]map[string]int{full, {"w": full["w"], "d": full["d"]}} {
			srv.locks = table
			for i, k := range keys {
				if got := srv.lockHeldLocked(k); got != want[i] {
					t.Errorf("%d other nodes busy, table %d: %q held = %v, want %v", others, pass, k, got, want[i])
				}
			}
		}
		srv.locks = full
		srv.mu.Unlock()
		if err := srv.LifecycleDrift(); err != nil {
			t.Fatal(err)
		}
	}
}
