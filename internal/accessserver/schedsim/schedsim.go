// Package schedsim is the deterministic simulation harness for the
// access server's scheduler. A Script describes a fleet (nodes, their
// devices, and scripted kill/revive/late-registration instants) and a
// workload (builds with owners, placement constraints, durations and
// submit instants); Run plays the script against a real Server on a
// virtual clock and returns every build's full outcome — assignment,
// placement score, attempts, wait and run durations, typed failure.
//
// Because the clock is virtual and every scheduler decision is
// deterministic (sorted scans, stable tie-breaks, held-clock dispatch
// batches), the same script always produces the same Result — which is
// what makes the harness usable for property tests: replay a script
// twice and diff the outcomes, assert liveness (every submitted build
// reaches a terminal state or fails typed), or probe scheduling policy
// (fairness caps, scoring preferences) with scripted fleets instead of
// ad-hoc assertions. This package is the standing correctness tool for
// scheduler work; grow scripts here rather than hand-rolled tests.
package schedsim

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// NodeSpec scripts one vantage point's lifecycle.
type NodeSpec struct {
	// Name identifies the node; Devices are the serials it hosts
	// (conventionally "model-unit", so the placer can match models).
	Name    string
	Devices []string
	// RegisterAt delays the node's registration into the fleet (0 =
	// registered before the script starts).
	RegisterAt time.Duration
	// KillAt > 0 kills the node at that instant: pings fail, running
	// builds hang until the lease watchdog reclaims them. ReviveAt > 0
	// brings it back.
	KillAt   time.Duration
	ReviveAt time.Duration
}

// BuildSpec scripts one submitted build.
type BuildSpec struct {
	// Owner is the submitting user (created as an experimenter; the
	// harness never submits as admin so admission control applies).
	Owner string
	// Node/Device pin the preferred placement; Fallback lets the scorer
	// substitute when the pin is unavailable.
	Node     string
	Device   string
	Fallback bool
	// Duration is the simulated run time. Sync builds instead complete
	// synchronously inside dispatch — the deep-queue stress shape.
	Duration time.Duration
	Sync     bool
	// SubmitAt is the submission instant (0 = before driving starts).
	SubmitAt time.Duration
}

// Action scripts one event the fleet and workload vocabulary above does
// not cover — an admin draining or removing a node, an owner aborting a
// build, a job being edited or deleted under its queued builds. Do runs
// against the live server at At (0 = after the initial submissions,
// before driving starts); builds is index-aligned with Script.Builds and
// holds nil for a build not yet submitted or shed.
type Action struct {
	At time.Duration
	Do func(srv *accessserver.Server, builds []*accessserver.Build)
}

// Script is one complete scenario.
type Script struct {
	Nodes   []NodeSpec
	Builds  []BuildSpec
	Actions []Action
	// AfterEvent, when set, observes the server after the initial
	// submissions, after every action and after every clock deadline the
	// drive loop fires: the hook invariant checkers hang off.
	AfterEvent func(srv *accessserver.Server)
	// Config overrides the harness defaults (Executors = node count,
	// 5s heartbeats, 5s retry backoff, 3 retries, 10m pending timeout).
	// Zero fields keep the defaults.
	Config accessserver.Config
	// Placer overrides the default scoring placer.
	Placer accessserver.Placer
	// MaxSimulated bounds the virtual-clock run as a safety net against
	// a livelocked script (default 24h).
	MaxSimulated time.Duration
}

// BuildResult is one build's deterministic outcome. Instants are
// durations from the script's start on the virtual clock.
type BuildResult struct {
	Index int    // position in Script.Builds
	Owner string `json:"owner"`
	State string `json:"state"`
	// Shed marks a submission rejected by admission control: no build
	// ever existed, ShedReason says why, every other field is zero.
	Shed       bool   `json:"shed,omitempty"`
	ShedReason string `json:"shed_reason,omitempty"`

	Node      string  `json:"node"`
	Score     float64 `json:"score"`
	Attempts  int     `json:"attempts"`
	Failovers int     `json:"failovers"`
	// WaitNS is submit→dispatch; RunNS is dispatch→finish. SubmitAt +
	// Wait + Run is the finish instant, so identical results imply
	// identical finish instants.
	WaitNS int64 `json:"wait_ns"`
	RunNS  int64 `json:"run_ns"`

	Err      string `json:"err,omitempty"`
	NodeLost bool   `json:"node_lost,omitempty"`
}

// Result is the script's outcome.
type Result struct {
	Builds []BuildResult
	// MakespanNS is the virtual time from start to the last terminal
	// transition the drive loop observed.
	MakespanNS int64
	// Shed counts submissions rejected by admission control.
	Shed int
	// DrainVisits and PlacementEvals are what the drain passes spent: the
	// server's blab_sched_drain_visits_total and
	// blab_sched_placement_evals_total at the end of the run. Like
	// everything else here they repeat exactly, which makes them a cost
	// measure no machine can blur.
	DrainVisits    int64
	PlacementEvals int64
}

// simNode is the scripted in-process vantage point.
type simNode struct {
	name    string
	devices string // newline-joined for list_devices
}

func (n simNode) Name() string { return n.name }
func (n simNode) Exec(cmd string, args ...string) (string, error) {
	switch cmd {
	case "ping":
		return "pong", nil
	case "list_devices":
		return n.devices, nil
	case "status":
		return "status: cpu=5.0%", nil
	}
	return "", nil
}
func (n simNode) Ping() error { return nil }

// backend compiles scripted specs: the workload params carry the
// build's duration and sync flag.
type backend struct{ clock simclock.Clock }

func (b backend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons := accessserver.Constraints{
		Node:     spec.Node,
		Device:   spec.Device,
		Fallback: spec.Constraints.AllowFallback,
	}
	durMS := spec.Workload.Params.Int("duration_ms", 10_000)
	sync := spec.Workload.Params.Bool("sync", false)
	return cons, func(ctx *accessserver.BuildContext, done func(error)) {
		if sync {
			done(nil)
			return
		}
		b.clock.AfterFunc(time.Duration(durMS)*time.Millisecond, func() {
			// A run on a dead vantage point never reports back — the
			// hang the lease watchdog exists to break. Live nodes
			// complete normally.
			if _, err := ctx.Node.Exec("ping"); err != nil {
				return
			}
			done(nil)
		})
	}, nil
}

func (backend) WorkloadNames() []string { return []string{"sim"} }

// Run plays the script to completion and reports every build's
// outcome. It errors when the scheduler stalls (a non-terminal build
// with no pending clock work) or the simulated-time safety net trips —
// both liveness violations, never expected from a correct scheduler.
func Run(script Script) (Result, error) {
	clk := simclock.NewVirtual()
	cfg := script.Config
	if cfg.Executors == 0 {
		cfg.Executors = len(script.Nodes)
	}
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
	maxSim := script.MaxSimulated
	if maxSim == 0 {
		maxSim = 24 * time.Hour
	}
	srv := accessserver.New(clk, cfg)
	srv.SetSpecBackend(backend{clock: clk})
	if script.Placer != nil {
		srv.SetPlacer(script.Placer)
	}

	users := map[string]*accessserver.User{}
	for _, bs := range script.Builds {
		if _, ok := users[bs.Owner]; ok {
			continue
		}
		u, err := srv.Users.Add(bs.Owner, accessserver.RoleExperimenter)
		if err != nil {
			return Result{}, fmt.Errorf("schedsim: adding owner %s: %w", bs.Owner, err)
		}
		users[bs.Owner] = u
	}

	flk := map[string]*accessserver.FlakyNode{}
	register := func(ns NodeSpec) error {
		n := flk[ns.Name]
		return srv.RegisterNode(n)
	}
	for _, ns := range script.Nodes {
		ns := ns
		flk[ns.Name] = accessserver.NewFlakyNode(simNode{
			name: ns.Name, devices: strings.Join(ns.Devices, "\n"),
		})
		if ns.RegisterAt > 0 {
			clk.AfterFunc(ns.RegisterAt, func() {
				if err := register(ns); err != nil {
					panic(fmt.Sprintf("schedsim: late-registering %s: %v", ns.Name, err))
				}
			})
		} else if err := register(ns); err != nil {
			return Result{}, fmt.Errorf("schedsim: registering %s: %w", ns.Name, err)
		}
		if ns.KillAt > 0 {
			clk.AfterFunc(ns.KillAt, flk[ns.Name].Kill)
		}
		if ns.ReviveAt > 0 {
			clk.AfterFunc(ns.ReviveAt, flk[ns.Name].Revive)
		}
	}

	t0 := clk.Now()
	results := make([]BuildResult, len(script.Builds))
	builds := make([]*accessserver.Build, len(script.Builds))
	shed := 0
	submit := func(i int) {
		bs := script.Builds[i]
		b, err := srv.SubmitSpec(users[bs.Owner], api.ExperimentSpec{
			Node: bs.Node, Device: bs.Device,
			Workload: api.WorkloadSpec{Name: "sim", Params: api.Params{
				// Params.Int reads int/float64, not int64.
				"duration_ms": int(bs.Duration.Milliseconds()),
				"sync":        bs.Sync,
			}},
			Constraints: api.ConstraintsSpec{AllowFallback: bs.Fallback},
		})
		if err != nil {
			if !errors.Is(err, accessserver.ErrOverloaded) {
				panic(fmt.Sprintf("schedsim: submitting build %d: %v", i, err))
			}
			results[i] = BuildResult{
				Index: i, Owner: bs.Owner, State: "shed",
				Shed: true, ShedReason: accessserver.ShedReasonOf(err),
			}
			shed++
			return
		}
		builds[i] = b
	}
	for i, bs := range script.Builds {
		if bs.SubmitAt > 0 {
			i := i
			clk.AfterFunc(bs.SubmitAt, func() { submit(i) })
		} else {
			submit(i)
		}
	}
	observe := func() {
		if script.AfterEvent != nil {
			script.AfterEvent(srv)
		}
	}
	observe()
	for _, a := range script.Actions {
		if a.At > 0 {
			clk.AfterFunc(a.At, func() { a.Do(srv, builds) })
			continue
		}
		a.Do(srv, builds)
		observe()
	}

	terminal := func(b *accessserver.Build) bool {
		switch b.State() {
		case accessserver.StateSuccess, accessserver.StateFailure, accessserver.StateAborted:
			return true
		}
		return false
	}
	// A build is outstanding while unsubmitted (its SubmitAt has not
	// fired — builds[i] still nil and results[i] not shed) or
	// non-terminal.
	allDone := func() bool {
		for i, b := range builds {
			if b == nil {
				if !results[i].Shed {
					return false
				}
				continue
			}
			if !terminal(b) {
				return false
			}
		}
		return true
	}
	var makespan time.Duration
	for !allDone() {
		next, ok := clk.NextDeadline()
		if !ok {
			return Result{}, fmt.Errorf("schedsim: stalled with %d builds queued and no pending clock work", srv.QueueLength())
		}
		if next.Sub(t0) > maxSim {
			return Result{}, fmt.Errorf("schedsim: exceeded the %s simulated-time safety net", maxSim)
		}
		clk.RunUntil(next)
		observe()
		if allDone() {
			makespan = clk.Now().Sub(t0)
		}
	}

	for i, b := range builds {
		if b == nil {
			continue // shed; result already recorded
		}
		r := BuildResult{
			Index:     i,
			Owner:     script.Builds[i].Owner,
			State:     b.State().String(),
			Node:      b.NodeName(),
			Score:     b.PlacementScore(),
			Attempts:  b.Attempts(),
			Failovers: b.Retries(),
			WaitNS:    b.QueueTime().Nanoseconds(),
			RunNS:     b.Duration().Nanoseconds(),
		}
		if err := b.Err(); err != nil {
			r.Err = err.Error()
			r.NodeLost = errors.Is(err, accessserver.ErrNodeLost)
		}
		results[i] = r
	}
	snap := srv.MetricsSnapshot()
	visits, _ := snap.Get("blab_sched_drain_visits_total")
	evals, _ := snap.Get("blab_sched_placement_evals_total")
	return Result{
		Builds: results, MakespanNS: makespan.Nanoseconds(), Shed: shed,
		DrainVisits: int64(visits.Value), PlacementEvals: int64(evals.Value),
	}, nil
}

// FleetScript is the standing load shape for scheduler gates and
// benchmarks: builds spread round-robin over nodes node00, node01, …,
// each pinned to its node's one device (dev-node00, …) with fallback
// allowed, ten simulated seconds long; the first killed nodes die 30 s in
// and their builds fail over to the survivors. owner names the submitter
// of build i (nil: every build is "bench"'s). It has one placement class
// per node.
func FleetScript(builds, nodes, killed int, owner func(i int) string) Script {
	if owner == nil {
		owner = func(int) string { return "bench" }
	}
	var s Script
	for i := 0; i < nodes; i++ {
		ns := NodeSpec{Name: fmt.Sprintf("node%02d", i), Devices: []string{fmt.Sprintf("dev-node%02d", i)}}
		if i < killed {
			ns.KillAt = 30 * time.Second
		}
		s.Nodes = append(s.Nodes, ns)
	}
	for i := 0; i < builds; i++ {
		n := s.Nodes[i%nodes]
		s.Builds = append(s.Builds, BuildSpec{
			Owner: owner(i), Node: n.Name, Device: n.Devices[0], Fallback: true, Duration: 10 * time.Second,
		})
	}
	return s
}

// RichScript is the determinism workhorse: a heterogeneous fleet with a
// mid-run kill, a kill+revive, and a late registration, loaded with a
// mix of pinned and fallback builds from three owners on staggered
// submit instants. Everything a dispatch pass can do, it does here.
func RichScript() Script {
	s := Script{
		Nodes: []NodeSpec{
			{Name: "pixel-1", Devices: []string{"pixel4-a", "pixel4-b"}},
			{Name: "pixel-2", Devices: []string{"pixel4-c"}, KillAt: 30 * time.Second},
			{Name: "moto-1", Devices: []string{"motog5-a"}, KillAt: 40 * time.Second, ReviveAt: 2 * time.Minute},
			{Name: "moto-2", Devices: []string{"motog5-b"}},
			{Name: "nexus-1", Devices: []string{"nexus5-a"}, RegisterAt: 20 * time.Second},
		},
	}
	owners := []string{"ana", "bo", "cy"}
	pin := []struct{ node, dev string }{
		{"pixel-1", "pixel4-a"}, {"pixel-1", "pixel4-b"}, {"pixel-2", "pixel4-c"},
		{"moto-1", "motog5-a"}, {"moto-2", "motog5-b"}, {"nexus-1", "nexus5-a"},
	}
	for i := 0; i < 36; i++ {
		p := pin[i%len(pin)]
		s.Builds = append(s.Builds, BuildSpec{
			Owner:    owners[i%len(owners)],
			Node:     p.node,
			Device:   p.dev,
			Fallback: i%2 == 0,
			Duration: time.Duration(5+i%7) * time.Second,
			SubmitAt: time.Duration(i%5) * 3 * time.Second,
		})
	}
	return s
}
