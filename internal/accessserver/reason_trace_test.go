package accessserver_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/schedsim"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// pendingReasonTrace is the SHA-256 TestPendingReasonTrace must reproduce.
// It was computed by running this file on the commit before placement
// classes existed (997c949, where every drain pass re-placed every queued
// build), so it pins the cache to the rescan byte for byte. A change that
// moves it changed what a status poller sees: say so, and why.
const pendingReasonTrace = "cf35dc23c886625fafd85ef0d288fb0c9d1b8a01cc159b3d5ea4b7f01e10de00"

// TestPendingReasonTrace hashes what the scheduler decided and what it
// told a status poller about it — state, node, placement score and
// pending reason of every build — after every event of three scripts:
// RichScript, the admin script, and 1 200 seeded random operations.
func TestPendingReasonTrace(t *testing.T) {
	h := sha256.New()
	event := 0
	trace := func(srv *accessserver.Server) {
		event++
		traceBuilds(t, h, event, srv)
	}

	rich := schedsim.RichScript()
	rich.AfterEvent = trace
	if _, err := schedsim.Run(rich); err != nil {
		t.Fatal(err)
	}
	admin, verify := adminScript(t)
	admin.AfterEvent = trace
	res, err := schedsim.Run(*admin)
	if err != nil {
		t.Fatal(err)
	}
	verify(res)
	// The random script is also the oracles' widest net: they read, so
	// they cannot move the hash.
	runRandomScript(t, 21, 1200, func(srv *accessserver.Server) {
		trace(srv)
		for _, drift := range []func() error{srv.CensusDrift, srv.QueueDrift, srv.LifecycleDrift, srv.PlacementDrift} {
			if err := drift(); err != nil {
				t.Fatalf("after event %d: %v", event, err)
			}
		}
	})

	if got := hex.EncodeToString(h.Sum(nil)); got != pendingReasonTrace {
		t.Fatalf("trace of %d events hashes to %s, want %s", event, got, pendingReasonTrace)
	}
}

// traceBuilds writes one line per build the server has ever admitted:
// its published state, node and score, and its scheduler label
// (Entry.Label), which a settled build keeps from its last moment in the
// queue, as the hash was computed. The scripts run every event in the
// calling goroutine, so the label is read between sections.
func traceBuilds(t *testing.T, h hash.Hash, event int, srv *accessserver.Server) {
	t.Helper()
	for id := 1; ; id++ {
		st, err := srv.BuildStatus(id)
		if errors.Is(err, accessserver.ErrNotFound) {
			return
		}
		b, err := srv.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		_, reason := b.Label()
		fmt.Fprintf(h, "%d %d %s %q %v %q\n", event, id, st.State, st.Node, st.PlacementScore, reason)
	}
}

// traceNode is the random script's vantage point: a fixed name, a device
// list and a CPU reading the script changes under it.
type traceNode struct {
	name    string
	devices []string
	hot     bool
}

func (n *traceNode) Name() string { return n.name }
func (n *traceNode) Ping() error  { return nil }
func (n *traceNode) Exec(cmd string, args ...string) (string, error) {
	switch cmd {
	case "list_devices":
		return strings.Join(n.devices, "\n"), nil
	case "status":
		if n.hot {
			return "status: cpu=80.0%", nil
		}
		return "status: cpu=5.0%", nil
	}
	return "pong", nil
}

// traceBackend compiles every spec as it stands: any node, any device,
// every constraint the scheduler knows.
type traceBackend struct{ clock simclock.Clock }

func (tb traceBackend) WorkloadNames() []string { return []string{"sim"} }

func (tb traceBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons := accessserver.Constraints{
		Node:          spec.Node,
		Device:        spec.Device,
		RequireLowCPU: spec.Constraints.RequireLowCPU,
		Fallback:      spec.Constraints.AllowFallback,
		WholeNode:     spec.Workload.Params.Bool("whole", false),
	}
	dur := time.Duration(spec.Workload.Params.Int("duration_ms", 5000)) * time.Millisecond
	return cons, func(ctx *accessserver.BuildContext, done func(error)) {
		ctx.OnCancel(func() { done(errors.New("canceled by user")) })
		tb.clock.AfterFunc(dur, func() {
			// A run on a dead vantage point never reports back.
			if _, err := ctx.Node.Exec("ping"); err == nil {
				done(nil)
			}
		})
	}, nil
}

// runRandomScript plays steps seeded random operations — submissions of
// every constraint shape, campaigns, aborts, every node verb, kills and
// revivals, stray beats, CPU swings, placer swaps and clock advances —
// against one server on a virtual clock, calling after behind each. Verbs
// that lose to the state they find (a drain of an unregistered node, an
// abort of a finished build) answer typed errors, which is part of the
// exercise.
func runRandomScript(t *testing.T, seed int64, steps int, after func(*accessserver.Server)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clk := simclock.NewVirtual()
	srv := accessserver.New(clk, accessserver.Config{
		Executors: 5, HeartbeatEvery: 5 * time.Second, RetryBackoff: 5 * time.Second,
		MaxRetries: 2, PendingTimeout: 2 * time.Minute, OwnerRunCap: 3,
	})
	srv.SetSpecBackend(traceBackend{clock: clk})
	admin, err := srv.Users.Add("root", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	var owners []*accessserver.User
	for _, name := range []string{"ana", "bo", "cy"} {
		u, err := srv.Users.Add(name, accessserver.RoleExperimenter)
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, u)
	}
	nodes := []*traceNode{
		{name: "n0", devices: []string{"pixel4-a", "pixel4-b"}},
		{name: "n1", devices: []string{"pixel4-c"}},
		{name: "n2", devices: []string{"motog5-a", "motog5-b"}},
		{name: "n3", devices: []string{"motog5-c"}},
		{name: "n4", devices: []string{"nexus5-a"}},
	}
	handles := make([]*accessserver.FlakyNode, len(nodes))
	for i, n := range nodes {
		handles[i] = accessserver.NewFlakyNode(n)
		if i < 4 { // n4 joins when the script says so
			if err := srv.RegisterNode(handles[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One build in eleven names a node nobody ever registers.
	names := []string{"n0", "n1", "n2", "n3", "n4", "ghost"}
	spec := func() api.ExperimentSpec {
		s := api.ExperimentSpec{Node: "ghost", Device: "pixel4-x",
			Workload: api.WorkloadSpec{Name: "sim", Params: api.Params{
				"duration_ms": 3000 + 1000*rng.Intn(18),
				"whole":       rng.Intn(7) == 0,
			}}}
		if i := rng.Intn(2*len(nodes) + 1); i < 2*len(nodes) {
			n := nodes[i%len(nodes)]
			s.Node, s.Device = n.name, n.devices[rng.Intn(len(n.devices))]
		}
		if rng.Intn(10) == 0 {
			s.Device = ""
		}
		s.Constraints.AllowFallback = rng.Intn(5) < 2
		s.Constraints.RequireLowCPU = rng.Intn(7) == 0
		return s
	}
	lastBuild := 0
	submitted := func(b *accessserver.Build) {
		if b != nil && b.ID > lastBuild {
			lastBuild = b.ID
		}
	}
	placers := []accessserver.Placer{nil, accessserver.WeightedPlacer{W: accessserver.ScoreWeights{QueueDepth: 1, ModelMatch: 20, Flap: 3}}}

	after(srv)
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(nodes))
		n, h := nodes[i], handles[i]
		switch op := rng.Intn(100); {
		case op < 30:
			b, _ := srv.SubmitSpec(owners[rng.Intn(len(owners))], spec())
			submitted(b)
		case op < 35:
			c := api.CampaignSpec{MaxConcurrent: 1 + rng.Intn(2)}
			for k := 2 + rng.Intn(5); k > 0; k-- {
				c.Experiments = append(c.Experiments, spec())
			}
			_, builds, _ := srv.SubmitCampaign(owners[rng.Intn(len(owners))], c)
			for _, b := range builds {
				submitted(b)
			}
		case op < 60:
			clk.Advance(time.Duration(500+rng.Intn(5500)) * time.Millisecond)
		case op < 63:
			h.Kill()
		case op < 68:
			h.Revive()
		case op < 70:
			srv.Nodes.Remove(n.name)
		case op < 74:
			srv.Nodes.Register(h)
			srv.Kick()
		case op < 78:
			srv.RegisterNode(h)
		case op < 79:
			srv.RemoveNode(admin, n.name)
		case op < 82:
			srv.MonitorNode(n.name)
		case op < 84:
			srv.DrainNode(admin, n.name)
		case op < 88:
			srv.UndrainNode(admin, n.name)
		case op < 92:
			if lastBuild > 0 {
				srv.Abort(admin, 1+rng.Intn(lastBuild))
			}
		case op < 95:
			srv.Heartbeat(names[rng.Intn(len(names))])
		case op < 96:
			srv.Kick()
		case op < 97:
			srv.SetPlacer(placers[rng.Intn(len(placers))])
			srv.Kick()
		case op < 99:
			n.hot = !n.hot
		default:
			// A device swap the server learns of at the next MonitorNode.
			n.devices[0], n.devices[len(n.devices)-1] = n.devices[len(n.devices)-1], n.devices[0]+"x"
			srv.MonitorNode(n.name)
		}
		after(srv)
	}
	if lastBuild < 200 {
		t.Fatalf("the random script admitted only %d builds", lastBuild)
	}
}
