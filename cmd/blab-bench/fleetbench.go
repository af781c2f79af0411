package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/metrics"
	"batterylab/internal/remote"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
)

// fleetBenchReport is the JSON baseline committed as BENCH_fleet.json:
// the whole access server under fleet-scale load — N simulated vantage
// points, campaign churn (submits, concurrency caps, cancels) and M
// HTTP streaming clients following build feeds — on the virtual clock
// with a real WAL attached, plus a two-server federation phase where
// half the builds route to a peer's vantage points over the relay.
//
// The report splits cleanly in two. Deterministic holds fields that
// depend only on the scenario (virtual-clock scheduling is
// deterministic: equal deadlines break ties by registration order), so
// two runs with the same config produce byte-identical Deterministic
// sections — the fleet-bench regression test asserts exactly that.
// Timing holds the wall-clock throughput numbers, which vary run to
// run and are reported for trending only.
type fleetBenchReport struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`

	Nodes     int `json:"nodes"`
	Clients   int `json:"clients"`
	Builds    int `json:"builds"`
	Campaigns int `json:"campaigns"`

	Deterministic fleetDeterministic `json:"deterministic"`
	ReadFlood     fleetReadFlood     `json:"read_flood"`
	Federation    fleetFederation    `json:"federation"`
	Timing        fleetTiming        `json:"timing"`
}

// fleetFederation is the two-server phase: a home server and a
// federated peer share one virtual clock, builds submitted to the home
// server alternate between home-local vantage points and ones it only
// knows through the peer's census, and every routed build streams its
// feed back through the relay. Wall-clock interleaving between the
// relay's HTTP goroutines and the clock driver varies run to run, so
// the section reports only schedule-invariant counts — no wait
// quantiles and no simulated-time field.
type fleetFederation struct {
	NodesPerServer int `json:"nodes_per_server"`
	Builds         int `json:"builds"`

	Submitted int64 `json:"submitted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	// Routed counts builds the home scheduler dispatched to the peer
	// (blab_cluster_builds_routed_total) — exactly half the submissions
	// by construction.
	Routed     int64 `json:"routed"`
	PeerLosses int64 `json:"peer_losses"`

	// Home-server feed totals. Routed builds post their events and
	// samples on the peer, and the relay republishes every record into
	// the home feed — so these count local and relayed traffic alike.
	EventsPosted   int64 `json:"events_posted"`
	EventsDropped  int64 `json:"events_dropped"`
	SamplesPosted  int64 `json:"samples_posted"`
	SamplesDropped int64 `json:"samples_dropped"`

	// PeersOnline is the home server's final census: the peer must
	// still be online (heartbeats rode the same virtual clock).
	PeersOnline int64 `json:"peers_online"`
}

// fleetReadFlood is the read-flood phase: the identical churn scenario
// rerun with a status-poll flood hammering the snapshot-served routes
// while the clock is driven. Because the hot reads never acquire the
// scheduler lock, the flood cannot perturb the virtual-clock schedule:
// every field here is deterministic, and the submit-wait quantiles must
// not regress from the churn-only phase (the -fleet-bench-check gate
// enforces both).
type fleetReadFlood struct {
	// Polls counts completed status polls (fixed by construction:
	// builds x pollsPerBuild).
	Polls int64 `json:"polls"`
	// MonotonicViolations counts polls that observed a build's state
	// move backwards. Snapshots publish in transition order, so this
	// must be zero.
	MonotonicViolations int64 `json:"monotonic_violations"`
	// Submit-wait quantiles under the flood; no regression allowed
	// against the churn-only Deterministic quantiles.
	SubmitP50MS float64 `json:"submit_p50_ms"`
	SubmitP99MS float64 `json:"submit_p99_ms"`
}

// fleetDeterministic is the replayable part of the outcome.
type fleetDeterministic struct {
	Submitted  int64 `json:"submitted"`
	Dispatched int64 `json:"dispatched"`
	Succeeded  int64 `json:"succeeded"`
	Failed     int64 `json:"failed"`
	Aborted    int64 `json:"aborted"`

	// Submit→running wait quantiles on the virtual clock, exact (from
	// the sorted per-build queue times, not a streaming estimate).
	SubmitP50MS float64 `json:"submit_p50_ms"`
	SubmitP99MS float64 `json:"submit_p99_ms"`

	EventsPosted   int64 `json:"events_posted"`
	EventsDropped  int64 `json:"events_dropped"`
	SamplesPosted  int64 `json:"samples_posted"`
	SamplesDropped int64 `json:"samples_dropped"`
	// FeedDropRate is dropped/(posted+dropped) across both streams.
	FeedDropRate float64 `json:"feed_drop_rate"`

	// EventsStreamed counts events delivered to the M HTTP streaming
	// clients (replay-plus-follow over the real handler stack).
	EventsStreamed int64 `json:"events_streamed"`

	WALAppends  int64 `json:"wal_appends"`
	SimulatedMS int64 `json:"simulated_ms"`
}

// fleetTiming is the wall-clock part, excluded from the determinism
// check.
type fleetTiming struct {
	WallNS           int64   `json:"wall_ns"`
	BuildsPerSec     float64 `json:"builds_per_sec"`
	WALAppendsPerSec float64 `json:"wal_appends_per_sec"`
}

// fleetBackend compiles every spec into a run that emits phase events
// and live samples on the virtual clock. Everything is derived from
// the build ID, so reruns replay identically: duration 4–8 s, ~one
// sample per second, and build 1 additionally floods its event feed
// past the buffer cap so the drop accounting shows up in the report.
type fleetBackend struct{ clock simclock.Clock }

const fleetFloodEvents = 4296 // feedEventCap (4096) + 200 guaranteed drops

func (fb fleetBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons := accessserver.Constraints{
		Node:     spec.Node,
		Device:   spec.Device,
		Fallback: spec.Constraints.AllowFallback,
	}
	run := func(ctx *accessserver.BuildContext, done func(error)) {
		id := ctx.Build.ID
		feed := ctx.Build.Feed()
		node := ctx.Node.Name()
		ctx.OnCancel(func() { done(errors.New("canceled by user")) })

		feed.PostEvent(api.BuildEvent{
			Build: id, Node: node, Phase: "workload",
			AtNS: fb.clock.Now().UnixNano(),
		})
		if id == 1 {
			// Deterministic overflow: a chatty pipeline that outruns the
			// bounded buffer, so drop-rate handling is always exercised.
			for i := 0; i < fleetFloodEvents; i++ {
				feed.PostEvent(api.BuildEvent{
					Build: id, Node: node, Phase: "chatter",
					AtNS: fb.clock.Now().UnixNano(),
				})
			}
		}
		dur := time.Duration(4+id%5) * time.Second
		for i := 1; i <= int(dur/time.Second); i++ {
			at := time.Duration(i) * time.Second
			fb.clock.AfterFunc(at, func() {
				feed.PostSample(api.SamplePoint{
					AtNS:      fb.clock.Now().UnixNano(),
					CurrentMA: float64(100 + id%50),
				})
			})
		}
		fb.clock.AfterFunc(dur, func() {
			feed.PostEvent(api.BuildEvent{
				Build: id, Node: node, Phase: "teardown",
				AtNS: fb.clock.Now().UnixNano(),
			})
			done(nil)
		})
	}
	return cons, run, nil
}

func (fleetBackend) WorkloadNames() []string { return []string{"fleet"} }

// fleetPhase is one scenario pass's harvest.
type fleetPhase struct {
	det       fleetDeterministic
	campaigns int
	wallNS    int64

	polls    int64
	monoViol int64
	floodP50 float64
	floodP99 float64
}

// fleetPollsPerBuild is the read-flood depth: every build's status is
// polled this many times while the scenario churns. At the default 200
// builds that is a thousand polls riding on top of the streaming
// clients.
const fleetPollsPerBuild = 5

// fleetFederationScale derives the two-server phase's size from the
// main scenario's knobs: a quarter of the fleet on each server, a
// tenth of the builds (rounded even so exactly half route to the
// peer).
func fleetFederationScale(nodeCount, buildCount int) (perServer, builds int) {
	perServer = nodeCount / 4
	if perServer < 2 {
		perServer = 2
	}
	builds = buildCount / 10
	if builds < 8 {
		builds = 8
	}
	if builds%2 == 1 {
		builds++
	}
	return perServer, builds
}

// runFleetBench drives the scenario three times — churn only, churn
// with the read flood, then the two-server federation phase — and
// writes the JSON report.
func runFleetBench(w io.Writer, nodeCount, clientCount, buildCount int) error {
	churn, err := runFleetPhase(nodeCount, clientCount, buildCount, false)
	if err != nil {
		return err
	}
	flood, err := runFleetPhase(nodeCount, clientCount, buildCount, true)
	if err != nil {
		return err
	}
	fedNodes, fedBuilds := fleetFederationScale(nodeCount, buildCount)
	fed, err := runFleetFederation(fedNodes, fedBuilds)
	if err != nil {
		return err
	}

	rep := fleetBenchReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		Nodes:     nodeCount,
		Clients:   clientCount,
		Builds:    buildCount,
		Campaigns: churn.campaigns,

		Deterministic: churn.det,
		ReadFlood: fleetReadFlood{
			Polls:               flood.polls,
			MonotonicViolations: flood.monoViol,
			SubmitP50MS:         flood.floodP50,
			SubmitP99MS:         flood.floodP99,
		},
		Federation: fed,
		Timing: fleetTiming{
			WallNS:           churn.wallNS,
			BuildsPerSec:     float64(buildCount) / (float64(churn.wallNS) / 1e9),
			WALAppendsPerSec: float64(churn.det.WALAppends) / (float64(churn.wallNS) / 1e9),
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runFleetPhase drives one pass of the fleet scenario. With flood set,
// status pollers hammer the snapshot routes concurrently with the
// streaming clients and the clock drive.
func runFleetPhase(nodeCount, clientCount, buildCount int, flood bool) (fleetPhase, error) {
	var phase fleetPhase
	clk := simclock.NewVirtual()
	srv := accessserver.New(clk, accessserver.Config{
		Executors:      nodeCount,
		HeartbeatEvery: 5 * time.Second,
		RetryBackoff:   5 * time.Second,
		MaxRetries:     3,
		PendingTimeout: 30 * time.Minute,
	})
	srv.SetSpecBackend(fleetBackend{clock: clk})

	admin, err := srv.Users.Add("bench", accessserver.RoleAdmin)
	if err != nil {
		return phase, err
	}
	nodeNames := make([]string, nodeCount)
	for i := range nodeNames {
		nodeNames[i] = fmt.Sprintf("node%02d", i)
		if err := srv.RegisterNode(rawBenchNode{name: nodeNames[i]}); err != nil {
			return phase, err
		}
	}

	// Real durability underneath the load: every lifecycle transition
	// appends to an actual WAL in a scratch directory.
	dir, err := os.MkdirTemp("", "blab-fleet-bench-*")
	if err != nil {
		return phase, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return phase, err
	}
	if _, err := srv.AttachStore(st); err != nil {
		return phase, err
	}

	start := time.Now()
	t0 := clk.Now()

	// Submission wave: 60% of the builds arrive as campaigns with a
	// concurrency cap (queue-pressure churn), the rest as singles.
	spec := func(i int) api.ExperimentSpec {
		n := nodeNames[i%nodeCount]
		return api.ExperimentSpec{
			Node: n, Device: "dev-" + n,
			Workload:    api.WorkloadSpec{Name: "fleet"},
			Constraints: api.ConstraintsSpec{AllowFallback: true},
		}
	}
	var all []*accessserver.Build
	campaignBuilds := buildCount * 6 / 10
	campaignSize := 10
	campaigns := 0
	for submitted := 0; submitted < campaignBuilds; submitted += campaignSize {
		size := campaignSize
		if rest := campaignBuilds - submitted; rest < size {
			size = rest
		}
		specs := make([]api.ExperimentSpec, size)
		for j := range specs {
			specs[j] = spec(submitted + j)
		}
		_, builds, err := srv.SubmitCampaign(admin, api.CampaignSpec{
			Experiments:   specs,
			MaxConcurrent: 3,
		})
		if err != nil {
			return phase, err
		}
		all = append(all, builds...)
		campaigns++
	}
	for i := len(all); i < buildCount; i++ {
		b, err := srv.SubmitSpec(admin, spec(i))
		if err != nil {
			return phase, err
		}
		all = append(all, b)
	}

	// Churn: a deterministic slice of the queued tail is canceled before
	// the clock moves (covering the queued-abort path), and one more
	// tranche is canceled mid-run at t+3s (covering running cancels).
	for _, b := range all {
		if b.ID > nodeCount && b.ID%9 == 0 && b.State() == accessserver.StateQueued {
			if err := srv.Abort(admin, b.ID); err != nil {
				return phase, err
			}
		}
	}
	late := make([]int, 0, 8)
	for _, b := range all {
		if b.ID%17 == 0 {
			late = append(late, b.ID)
		}
	}
	clk.AfterFunc(3*time.Second, func() {
		for _, id := range late {
			srv.Abort(admin, id) // conflict on already-finished: fine
		}
	})

	// M streaming clients over the real HTTP stack, following the event
	// feeds round-robin (replay from 0, follow to close).
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var streamed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clientCount; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(all); i += clientCount {
				n, err := streamEventCount(ts.URL, admin.Token, all[i].ID)
				if err != nil {
					continue // terminal states can close streams mid-read
				}
				streamed.Add(n)
			}
		}(c)
	}

	// The read flood: pollers sweep every build's status a fixed number
	// of times while the clock is driven. Status reads come off the
	// snapshot plane without the scheduler lock, so the flood must not
	// move a single deterministic outcome — the check gate compares this
	// phase's submit-wait quantiles against the churn-only phase's.
	var polls, monoViol atomic.Int64
	if flood {
		for c := 0; c < clientCount; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(all); i += clientCount {
					last := -1
					for k := 0; k < fleetPollsPerBuild; k++ {
						state, ok := pollBuildState(ts.URL, admin.Token, all[i].ID)
						if !ok {
							continue
						}
						polls.Add(1)
						r := fleetStateRank(state)
						if r >= 0 && r < last {
							monoViol.Add(1)
						}
						if r >= 0 {
							last = r
						}
					}
				}
			}(c)
		}
	}

	// Drive the virtual clock until every build settles.
	terminal := func(b *accessserver.Build) bool {
		switch b.State() {
		case accessserver.StateSuccess, accessserver.StateFailure, accessserver.StateAborted:
			return true
		}
		return false
	}
	for {
		settled := true
		for _, b := range all {
			if !terminal(b) {
				settled = false
				break
			}
		}
		if settled {
			break
		}
		next, ok := clk.NextDeadline()
		if !ok {
			return phase, fmt.Errorf("fleet-bench: stalled with %d builds queued", srv.QueueLength())
		}
		clk.RunUntil(next)
	}
	wg.Wait()
	wallNS := time.Since(start).Nanoseconds()

	// Harvest the deterministic outcome from the metrics registry — the
	// same snapshot /api/v1/metrics serves.
	snap := srv.MetricsSnapshot()
	get := func(name string, labels ...string) int64 {
		m, _ := snap.Get(name, metrics.L(labels...)...)
		return int64(m.Value)
	}

	det := fleetDeterministic{
		Submitted:      get("blab_builds_submitted_total"),
		Dispatched:     get("blab_builds_dispatched_total"),
		Succeeded:      get("blab_builds_finished_total", "result", "success"),
		Failed:         get("blab_builds_finished_total", "result", "failure"),
		Aborted:        get("blab_builds_finished_total", "result", "aborted"),
		EventsPosted:   get("blab_feed_events_posted_total"),
		EventsDropped:  get("blab_feed_events_dropped_total"),
		SamplesPosted:  get("blab_feed_samples_posted_total"),
		SamplesDropped: get("blab_feed_samples_dropped_total"),
		EventsStreamed: streamed.Load(),
		WALAppends:     get("blab_wal_appends_total"),
		SimulatedMS:    clk.Now().Sub(t0).Milliseconds(),
	}
	posted := det.EventsPosted + det.SamplesPosted
	dropped := det.EventsDropped + det.SamplesDropped
	if posted+dropped > 0 {
		det.FeedDropRate = float64(dropped) / float64(posted+dropped)
	}

	// Exact submit→running quantiles from the dispatched builds' queue
	// times (virtual-clock durations, so deterministic).
	var waits []float64
	for _, b := range all {
		if qt := b.QueueTime(); qt > 0 || b.Attempts() > 0 {
			waits = append(waits, float64(qt.Milliseconds()))
		}
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		det.SubmitP50MS = samples.QuantileSorted(waits, 0.50)
		det.SubmitP99MS = samples.QuantileSorted(waits, 0.99)
	}

	if det.Succeeded+det.Failed+det.Aborted != int64(buildCount) {
		return phase, fmt.Errorf("fleet-bench: %d builds submitted but %d finished",
			buildCount, det.Succeeded+det.Failed+det.Aborted)
	}
	phase = fleetPhase{
		det:       det,
		campaigns: campaigns,
		wallNS:    wallNS,
		polls:     polls.Load(),
		monoViol:  monoViol.Load(),
		floodP50:  det.SubmitP50MS,
		floodP99:  det.SubmitP99MS,
	}
	return phase, nil
}

// fedFleetBackend compiles pinned specs whose runtime derives from the
// node NAME, not the build ID: a build routed to the peer is assigned
// a fresh ID over there, and the arrival order of concurrent relays is
// racy, so ID-derived durations would make the sample totals drift run
// to run.
type fedFleetBackend struct{ clock simclock.Clock }

// fedNodeWeight spreads run durations (4–8 s) and current draws across
// the fleet deterministically by name.
func fedNodeWeight(node string) int {
	sum := 0
	for i := 0; i < len(node); i++ {
		sum += int(node[i])
	}
	return sum % 5
}

func (fb fedFleetBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons := accessserver.Constraints{Node: spec.Node, Device: spec.Device}
	run := func(ctx *accessserver.BuildContext, done func(error)) {
		id := ctx.Build.ID
		feed := ctx.Build.Feed()
		node := ctx.Node.Name()
		ctx.OnCancel(func() { done(errors.New("canceled by user")) })

		feed.PostEvent(api.BuildEvent{
			Build: id, Node: node, Phase: "workload",
			AtNS: fb.clock.Now().UnixNano(),
		})
		w := fedNodeWeight(node)
		dur := time.Duration(4+w) * time.Second
		for i := 1; i <= int(dur/time.Second); i++ {
			at := time.Duration(i) * time.Second
			fb.clock.AfterFunc(at, func() {
				feed.PostSample(api.SamplePoint{
					AtNS:      fb.clock.Now().UnixNano(),
					CurrentMA: float64(100 + 10*w),
				})
			})
		}
		fb.clock.AfterFunc(dur, func() {
			feed.PostEvent(api.BuildEvent{
				Build: id, Node: node, Phase: "teardown",
				AtNS: fb.clock.Now().UnixNano(),
			})
			done(nil)
		})
	}
	return cons, run, nil
}

func (fedFleetBackend) WorkloadNames() []string { return []string{"fleet"} }

const fleetFederationToken = "fleet-bench-fed"

// runFleetFederation drives the two-server phase: home and peer access
// servers on one virtual clock, joined over real HTTP with the cluster
// token, with every second build pinned to a vantage point only the
// peer's census advertises. The phase is self-validating — every build
// must succeed and exactly half must route — and returns the
// deterministic counts for the report.
func runFleetFederation(perServer, buildCount int) (fleetFederation, error) {
	out := fleetFederation{NodesPerServer: perServer, Builds: buildCount}
	clk := simclock.NewVirtual()
	cfg := accessserver.Config{
		Executors:      perServer,
		HeartbeatEvery: 5 * time.Second,
		RetryBackoff:   5 * time.Second,
		MaxRetries:     3,
		PendingTimeout: 30 * time.Minute,
	}
	home := accessserver.New(clk, cfg)
	peer := accessserver.New(clk, cfg)
	home.SetSpecBackend(fedFleetBackend{clock: clk})
	peer.SetSpecBackend(fedFleetBackend{clock: clk})

	admin, err := home.Users.Add("bench", accessserver.RoleAdmin)
	if err != nil {
		return out, err
	}
	homeNodes := make([]string, perServer)
	peerNodes := make([]string, perServer)
	for i := 0; i < perServer; i++ {
		homeNodes[i] = fmt.Sprintf("fed-a-%02d", i)
		peerNodes[i] = fmt.Sprintf("fed-b-%02d", i)
		if err := home.RegisterNode(rawBenchNode{name: homeNodes[i]}); err != nil {
			return out, err
		}
		if err := peer.RegisterNode(rawBenchNode{name: peerNodes[i]}); err != nil {
			return out, err
		}
	}

	tsHome := httptest.NewServer(home.Handler())
	defer tsHome.Close()
	tsPeer := httptest.NewServer(peer.Handler())
	defer tsPeer.Close()
	home.ConfigureCluster("fleet-home", tsHome.URL, fleetFederationToken)
	peer.ConfigureCluster("fleet-peer", tsPeer.URL, fleetFederationToken)
	home.SetPeerRelay(remote.Relay)
	peer.SetPeerRelay(remote.Relay)
	defer home.StopCluster()
	defer peer.StopCluster()

	// Clock driver: step while either server has work, with real sleeps
	// between steps so the relay's HTTP goroutines get to run. (The
	// churn phases step the clock inline instead — they have no real
	// concurrency between builds and the driver.)
	stop := make(chan struct{})
	var driveWG sync.WaitGroup
	driveWG.Add(1)
	go func() {
		defer driveWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if home.Running()+home.QueueLength()+peer.Running()+peer.QueueLength() == 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			if !clk.Step() {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	defer func() { close(stop); driveWG.Wait() }()

	// Mesh join: the home server's synchronous first announce teaches
	// the peer about fleet-home, and the peer's first beat answers with
	// its census — placement knows the remote fleet before any submit.
	home.StartCluster(tsPeer.URL)
	peer.StartCluster()

	all := make([]*accessserver.Build, 0, buildCount)
	for i := 0; i < buildCount; i++ {
		n := homeNodes[(i/2)%perServer]
		if i%2 == 1 {
			n = peerNodes[(i/2)%perServer]
		}
		b, err := home.SubmitSpec(admin, api.ExperimentSpec{
			Node: n, Device: "dev-" + n,
			Workload: api.WorkloadSpec{Name: "fleet"},
		})
		if err != nil {
			return out, err
		}
		all = append(all, b)
	}

	terminal := func(b *accessserver.Build) bool {
		switch b.State() {
		case accessserver.StateSuccess, accessserver.StateFailure, accessserver.StateAborted:
			return true
		}
		return false
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		settled := 0
		for _, b := range all {
			if terminal(b) {
				settled++
			}
		}
		if settled == len(all) {
			break
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("fleet-bench federation: stalled with %d/%d builds unsettled",
				len(all)-settled, len(all))
		}
		time.Sleep(time.Millisecond)
	}

	snap := home.MetricsSnapshot()
	get := func(name string, labels ...string) int64 {
		m, _ := snap.Get(name, metrics.L(labels...)...)
		return int64(m.Value)
	}
	out.Submitted = get("blab_builds_submitted_total")
	out.Succeeded = get("blab_builds_finished_total", "result", "success")
	out.Failed = get("blab_builds_finished_total", "result", "failure")
	out.Routed = get("blab_cluster_builds_routed_total")
	out.PeerLosses = get("blab_cluster_peer_losses_total")
	out.EventsPosted = get("blab_feed_events_posted_total")
	out.EventsDropped = get("blab_feed_events_dropped_total")
	out.SamplesPosted = get("blab_feed_samples_posted_total")
	out.SamplesDropped = get("blab_feed_samples_dropped_total")
	out.PeersOnline = get("blab_cluster_peers", "state", "online")

	if out.Succeeded != int64(buildCount) {
		return out, fmt.Errorf("fleet-bench federation: %d/%d builds succeeded (failed=%d)",
			out.Succeeded, buildCount, out.Failed)
	}
	if out.Routed != int64(buildCount/2) {
		return out, fmt.Errorf("fleet-bench federation: %d builds routed to the peer, want exactly %d",
			out.Routed, buildCount/2)
	}
	return out, nil
}

// pollBuildState reads one build's snapshot-served wire status.
func pollBuildState(baseURL, token string, build int) (string, bool) {
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/api/v1/builds/%d", baseURL, build), nil)
	if err != nil {
		return "", false
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", false
	}
	var st api.BuildStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", false
	}
	return st.State, true
}

// fleetStateRank orders wire states along the build lifecycle for the
// monotonic-read check (-1: unrecognized, skipped).
func fleetStateRank(state string) int {
	switch state {
	case "queued":
		return 0
	case "running":
		return 1
	case "success", "failure", "aborted":
		return 2
	case "expired":
		return 3
	}
	return -1
}

// fleetBenchCheck reruns the fleet scenario at the baseline's scale and
// fails if any deterministic field drifted — including the read-flood
// and federation sections — or if the read-flood phase's p99 submit wait regressed
// against the churn-only phase (the data plane leaking back into the
// control plane).
func fleetBenchCheck(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want fleetBenchReport
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("fleet-bench-check: parsing %s: %w", path, err)
	}
	churn, err := runFleetPhase(want.Nodes, want.Clients, want.Builds, false)
	if err != nil {
		return err
	}
	flood, err := runFleetPhase(want.Nodes, want.Clients, want.Builds, true)
	if err != nil {
		return err
	}
	var fed fleetFederation
	if want.Federation.Builds > 0 {
		fed, err = runFleetFederation(want.Federation.NodesPerServer, want.Federation.Builds)
		if err != nil {
			return err
		}
	}
	var drifts []string
	diffI := func(field string, wantV, gotV int64) {
		if wantV != gotV {
			drifts = append(drifts, fmt.Sprintf("%s drifted %d -> %d", field, wantV, gotV))
		}
	}
	diffF := func(field string, wantV, gotV float64) {
		if wantV != gotV {
			drifts = append(drifts, fmt.Sprintf("%s drifted %g -> %g", field, wantV, gotV))
		}
	}
	w, g := want.Deterministic, churn.det
	diffI("submitted", w.Submitted, g.Submitted)
	diffI("dispatched", w.Dispatched, g.Dispatched)
	diffI("succeeded", w.Succeeded, g.Succeeded)
	diffI("failed", w.Failed, g.Failed)
	diffI("aborted", w.Aborted, g.Aborted)
	diffF("submit_p50_ms", w.SubmitP50MS, g.SubmitP50MS)
	diffF("submit_p99_ms", w.SubmitP99MS, g.SubmitP99MS)
	diffI("events_posted", w.EventsPosted, g.EventsPosted)
	diffI("events_dropped", w.EventsDropped, g.EventsDropped)
	diffI("samples_posted", w.SamplesPosted, g.SamplesPosted)
	diffI("samples_dropped", w.SamplesDropped, g.SamplesDropped)
	diffI("events_streamed", w.EventsStreamed, g.EventsStreamed)
	diffI("wal_appends", w.WALAppends, g.WALAppends)
	diffI("simulated_ms", w.SimulatedMS, g.SimulatedMS)
	diffI("read_flood.polls", want.ReadFlood.Polls, flood.polls)
	diffI("read_flood.monotonic_violations", want.ReadFlood.MonotonicViolations, flood.monoViol)
	diffF("read_flood.submit_p50_ms", want.ReadFlood.SubmitP50MS, flood.floodP50)
	diffF("read_flood.submit_p99_ms", want.ReadFlood.SubmitP99MS, flood.floodP99)
	if want.Federation.Builds > 0 {
		fw := want.Federation
		diffI("federation.submitted", fw.Submitted, fed.Submitted)
		diffI("federation.succeeded", fw.Succeeded, fed.Succeeded)
		diffI("federation.failed", fw.Failed, fed.Failed)
		diffI("federation.routed", fw.Routed, fed.Routed)
		diffI("federation.peer_losses", fw.PeerLosses, fed.PeerLosses)
		diffI("federation.events_posted", fw.EventsPosted, fed.EventsPosted)
		diffI("federation.events_dropped", fw.EventsDropped, fed.EventsDropped)
		diffI("federation.samples_posted", fw.SamplesPosted, fed.SamplesPosted)
		diffI("federation.samples_dropped", fw.SamplesDropped, fed.SamplesDropped)
		diffI("federation.peers_online", fw.PeersOnline, fed.PeersOnline)
	}
	if flood.monoViol != 0 {
		drifts = append(drifts, fmt.Sprintf("read flood observed %d monotonic-read violations, want 0", flood.monoViol))
	}
	if flood.floodP99 > churn.det.SubmitP99MS {
		drifts = append(drifts, fmt.Sprintf(
			"read-flood p99 submit wait %.0fms regressed past churn-only %.0fms",
			flood.floodP99, churn.det.SubmitP99MS))
	}
	if len(drifts) > 0 {
		for _, d := range drifts {
			fmt.Fprintln(os.Stderr, d)
		}
		return fmt.Errorf("%d deterministic field(s) drifted from %s", len(drifts), path)
	}
	return nil
}

// streamEventCount follows one build's NDJSON event stream to its end
// and reports how many events it replayed.
func streamEventCount(baseURL, token string, build int) (int64, error) {
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/api/v1/builds/%d/events", baseURL, build), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream %d: status %d", build, resp.StatusCode)
	}
	var n int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			n++
		}
	}
	return n, sc.Err()
}

// fleetBenchTo writes the report to path ("" or "-" = stdout).
func fleetBenchTo(path string, nodes, clients, builds int) error {
	if path == "" || path == "-" {
		return runFleetBench(os.Stdout, nodes, clients, builds)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runFleetBench(f, nodes, clients, builds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
