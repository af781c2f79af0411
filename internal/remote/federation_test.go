package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/cluster"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/metrics"
	"batterylab/internal/remote"
	"batterylab/internal/simclock"
)

const fedToken = "fed-relay-s3cret"

// fedLab is a two-server federation on ONE virtual clock: platform A
// ("lab-a") hosts node1, platform B ("lab-b") hosts node2, joined over
// real HTTP with a shared cluster token and the remote.Relay transport.
// Per-node seeds match newLab's, so a single-server lab built by
// newLab is the bit-identical control for the same campaign.
type fedLab struct {
	clock    *simclock.Virtual
	a, b     *batterylab.Platform
	tsA, tsB *httptest.Server
	devices  []string // devices[0] on A's node1, devices[1] on B's node2
	// bDead makes B's handler drop every request (killB).
	bDead atomic.Bool
}

// fedNode replicates newLab's per-node build (same seeds, browsers,
// video) on an arbitrary platform and returns the device serial.
func fedNode(t *testing.T, clock *simclock.Virtual, plat *batterylab.Platform, i int) string {
	t.Helper()
	name := []string{"node1", "node2"}[i]
	ctl, err := batterylab.NewController(clock, batterylab.ControllerConfig{Name: name, Seed: 100 + uint64(i)})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := batterylab.NewDevice(clock, batterylab.DeviceConfig{Seed: 500 + uint64(i)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(dev); err != nil {
		t.Fatal(err)
	}
	for _, prof := range batterylab.BrowserProfiles() {
		if err := dev.Install(batterylab.NewBrowser(prof, ctl)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Storage().Push("/sdcard/blab.mp4", batterylab.SampleMP4(1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Install(batterylab.NewVideoPlayer("/sdcard/blab.mp4")); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.Join(ctl, "198.51.100.7:2222"); err != nil {
		t.Fatal(err)
	}
	return dev.Serial()
}

func newFedLab(t *testing.T) *fedLab {
	t.Helper()
	clock := batterylab.VirtualClock()
	a, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batterylab.NewPlatform(clock, 2020)
	if err != nil {
		t.Fatal(err)
	}
	devA := fedNode(t, clock, a, 0)
	devB := fedNode(t, clock, b, 1)
	fl := &fedLab{clock: clock, a: a, b: b, devices: []string{devA, devB}}
	hB := b.Access.Handler()
	tsA := httptest.NewServer(a.Access.Handler())
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fl.bDead.Load() {
			panic(http.ErrAbortHandler) // drop the connection, answer nothing
		}
		hB.ServeHTTP(w, r)
	}))
	closeOnCleanup(t, tsA)
	closeOnCleanup(t, tsB)
	fl.tsA, fl.tsB = tsA, tsB
	a.Access.ConfigureCluster("lab-a", tsA.URL, fedToken)
	b.Access.ConfigureCluster("lab-b", tsB.URL, fedToken)
	a.Access.SetPeerRelay(remote.Relay)
	b.Access.SetPeerRelay(remote.Relay)

	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go clock.DriveWhile(anyBusy(a.Access, b.Access), stop)

	// Join the mesh: A's first announce teaches B about lab-a, then B's
	// announce back (to the peer it just learned) carries its census —
	// both sides are online with full vantage-point knowledge before
	// this returns, since StartCluster's first beat is synchronous.
	a.Access.StartCluster(tsB.URL)
	b.Access.StartCluster()
	return fl
}

// anyBusy is DriveBuilds' busy for servers sharing one clock: it moves
// while ANY of them has queued or running builds and freezes when the
// whole cluster is idle.
func anyBusy(servers ...*accessserver.Server) func() bool {
	return func() bool {
		for _, s := range servers {
			if s.Running()+s.QueueLength() > 0 {
				return true
			}
		}
		return false
	}
}

// killB kills peer B as its clients see it: from now on its handler
// drops every request, new connections are refused and live ones are
// severed. The handler goes first: a connection the listener accepted
// just as it closed is severed or, if it escaped, answers nothing.
func (fl *fedLab) killB() {
	fl.bDead.Store(true)
	fl.tsB.Listener.Close()
	fl.tsB.CloseClientConnections()
}

// client dials server A as an experimenter — the home server every
// federated submission in these tests goes through.
func (fl *fedLab) client(t *testing.T) *remote.Platform {
	t.Helper()
	token, err := batterylab.NewAPIToken(fl.a, "fed-"+t.Name(), "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	client, err := remote.Dial(fl.tsA.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// campaignSpec mirrors lab.campaignSpec: a browser sweep on node1
// (local to A) and video playback on node2 (which A only knows through
// lab-b's census).
func (fl *fedLab) campaignSpec() api.CampaignSpec {
	return api.CampaignSpec{
		Experiments: []api.ExperimentSpec{
			{
				Node: "node1", Device: fl.devices[0],
				Monitor: api.MonitorSpec{SampleRateHz: 1000},
				Workload: api.WorkloadSpec{
					Name:   "browser",
					Params: api.Params{"browser": "Brave", "pages": 2, "scrolls": 4},
				},
			},
			{
				Node: "node2", Device: fl.devices[1],
				Monitor: api.MonitorSpec{SampleRateHz: 500},
				Workload: api.WorkloadSpec{
					Name:   "video",
					Params: api.Params{"duration_ms": 30000},
				},
			},
		},
	}
}

// runFederated submits the campaign to A, waits it out, and returns the
// per-node home-server summaries plus the runs.
func runFederated(t *testing.T, fl *fedLab, client *remote.Platform, log *progressLog) (map[string]api.RunSummary, []core.CampaignRun) {
	t.Helper()
	ctx := context.Background()

	// Pin both builds' start instant to the current virtual time. The
	// routed experiment crosses a real HTTP relay before it starts on B,
	// and if the driver stepped the clock in that window the remote
	// workload would begin at a different instant than the local
	// control's — summaries would only agree to a tolerance instead of
	// bit-exactly. Holding the clock until both sides report the builds
	// running closes the window without blocking the relay (real time
	// keeps passing).
	release := fl.clock.Hold()
	held := true
	defer func() {
		if held {
			release()
		}
	}()
	camp, err := client.StartCampaign(ctx, fl.campaignSpec(), log)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if fl.a.Access.Running() == 2 && fl.b.Access.Running() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay never started: A running %d (want 2), B running %d (want 1)",
				fl.a.Access.Running(), fl.b.Access.Running())
		}
		time.Sleep(200 * time.Microsecond)
	}
	release()
	held = false
	runs, err := camp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs", len(runs))
	}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("run %d (%s) failed: %v", r.Index, r.Node, r.Err)
		}
		if r.Result == nil || r.Result.Current.Len() == 0 {
			t.Fatalf("run %d (%s) has no trace", r.Index, r.Node)
		}
	}
	sums := make(map[string]api.RunSummary)
	for _, r := range runs {
		st, err := client.BuildStatus(ctx, r.Build)
		if err != nil {
			t.Fatal(err)
		}
		if st.Summary == nil {
			t.Fatalf("build %d (%s): no summary on the home server", st.ID, st.Node)
		}
		sums[st.Node] = *st.Summary
	}
	return sums, runs
}

// TestFederationRoundTrip is the cross-server acceptance path: a
// campaign submitted to server A places one experiment on its own node
// and routes the other to server B's node through the cluster census,
// with events, samples, summary and artifacts streaming home — and the
// results are bit-identical to the same campaign on a single-server
// control lab, and to a second federated run (virtual-clock
// determinism).
func TestFederationRoundTrip(t *testing.T) {
	fl := newFedLab(t)
	client := fl.client(t)
	log := newProgressLog()
	ctx := context.Background()

	// Both sides see each other online before anything is submitted.
	if st, _, ok := fl.a.Access.Cluster().PeerState("lab-b", fl.clock.Now()); !ok || st != cluster.StateOnline {
		t.Fatalf("lab-b on A: ok=%v state=%v, want online", ok, st)
	}
	if st, _, ok := fl.b.Access.Cluster().PeerState("lab-a", fl.clock.Now()); !ok || st != cluster.StateOnline {
		t.Fatalf("lab-a on B: ok=%v state=%v, want online", ok, st)
	}

	sums, runs := runFederated(t, fl, client, log)

	// Provenance: node2's build was routed via lab-b; node1's ran here.
	peerClient, err := remote.Dial(fl.tsB.URL, fedToken)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0 // node2's build on A
	for _, r := range runs {
		st, err := client.BuildStatus(ctx, r.Build)
		if err != nil {
			t.Fatal(err)
		}
		switch st.Node {
		case "node1":
			if st.RoutedVia != "" {
				t.Errorf("node1 routed via %q, want local", st.RoutedVia)
			}
		case "node2":
			if st.RoutedVia != "lab-b" {
				t.Errorf("node2 routed via %q, want lab-b", st.RoutedVia)
			}
			routed = r.Build
			// The executing server's own record points home.
			rst, err := peerClient.BuildStatus(ctx, 1) // B's only build
			if err != nil {
				t.Fatal(err)
			}
			if rst.Node != "node2" || rst.HomeServer != "lab-a" || rst.State != "success" {
				t.Errorf("peer-side record = node %q home %q state %q", rst.Node, rst.HomeServer, rst.State)
			}
			// Artifacts were copied home: the server-side analytics
			// engine answers for the routed build on A.
			an, err := client.Analytics(ctx, r.Build, api.AnalyticsQuery{})
			if err != nil {
				t.Fatalf("analytics on the routed build: %v", err)
			}
			if an.Total.Samples != sums["node2"].Samples {
				t.Errorf("analytics over relayed trace: %d samples, summary says %d", an.Total.Samples, sums["node2"].Samples)
			}
		default:
			t.Errorf("unexpected node %q", st.Node)
		}
	}

	// The routed build's feed streamed home: phases through done, and
	// live samples, all observed via server A.
	log.mu.Lock()
	for _, node := range []string{"node1", "node2"} {
		phases := log.phases[node]
		if len(phases) == 0 || phases[len(phases)-1] != core.PhaseDone {
			t.Errorf("%s: phases %v, want a stream ending in done", node, phases)
		}
		if log.samples[node] == 0 {
			t.Errorf("no live samples from %s", node)
		}
	}
	log.mu.Unlock()

	// Control: the identical campaign on a single-server lab with the
	// same node seeds. Wherever the build ran, the summaries match bit
	// for bit.
	control := newLab(t)
	cclient := control.serve(t)
	ccamp, err := cclient.StartCampaign(ctx, control.campaignSpec(), newProgressLog())
	if err != nil {
		t.Fatal(err)
	}
	cruns, err := ccamp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	control2 := 0 // node2's build on the control lab
	for _, r := range cruns {
		st, err := cclient.BuildStatus(ctx, r.Build)
		if err != nil {
			t.Fatal(err)
		}
		if st.Summary == nil {
			t.Fatalf("control build %d: no summary", st.ID)
		}
		if st.Node == "node2" {
			control2 = r.Build
		}
		if got := sums[st.Node]; got != *st.Summary {
			t.Errorf("%s: federated summary %+v != control %+v", st.Node, got, *st.Summary)
		}
	}
	for i := range runs {
		fr, cr := runs[i].Result, cruns[i].Result
		if cr == nil {
			t.Fatalf("control run %d failed: %v", i, cruns[i].Err)
		}
		if fr.Current.Len() != cr.Current.Len() || fr.EnergyMAH != cr.EnergyMAH || fr.Duration != cr.Duration {
			t.Errorf("run %d: federated trace (%d samples, %v mAh, %v) != control (%d, %v, %v)",
				i, fr.Current.Len(), fr.EnergyMAH, fr.Duration, cr.Current.Len(), cr.EnergyMAH, cr.Duration)
		}
	}

	// The routed build keeps its export: home serves the current.csv the
	// relay copied from the peer, where it is a view of current.trace
	// rendered for the relay's fetch. It is the peer's own bytes and the
	// control's.
	t.Run("routed current.csv", func(t *testing.T) {
		home, err := client.Artifact(ctx, routed, core.ArtifactCurrentCSV)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := peerClient.Artifact(ctx, 1, core.ArtifactCurrentCSV) // B's only build
		if err != nil {
			t.Fatal(err)
		}
		local, err := cclient.Artifact(ctx, control2, core.ArtifactCurrentCSV)
		if err != nil {
			t.Fatal(err)
		}
		if len(home) == 0 || !bytes.Equal(home, peer) || !bytes.Equal(home, local) {
			t.Fatalf("current.csv: home %d bytes, peer %d, control %d; want one non-empty body",
				len(home), len(peer), len(local))
		}
	})

	// The routed build's home feed keeps each sample's live summary: what
	// home serves as NDJSON is the peer's own sample stream, n, mean,
	// quantiles and charge integral included.
	t.Run("routed live summary", func(t *testing.T) {
		home := ndjsonSamples(t, client, routed)
		peer := ndjsonSamples(t, peerClient, 1) // B's only build
		if len(home) == 0 || home[len(home)-1].N == 0 {
			t.Fatalf("home served %d samples for the routed build, the last with n = 0", len(home))
		}
		if !reflect.DeepEqual(home, peer) {
			t.Fatalf("home served %d samples, the peer %d: they differ", len(home), len(peer))
		}
	})

	// Determinism: a fresh federation, same seeds, same campaign —
	// bit-identical summaries again.
	fl2 := newFedLab(t)
	sums2, _ := runFederated(t, fl2, fl2.client(t), newProgressLog())
	for node, want := range sums {
		if got := sums2[node]; got != want {
			t.Errorf("%s: second federated run %+v != first %+v", node, got, want)
		}
	}
}

// ndjsonSamples reads a finished build's whole sample feed as NDJSON.
func ndjsonSamples(t *testing.T, client *remote.Platform, build int) []api.SamplePoint {
	t.Helper()
	var pts []api.SamplePoint
	err := client.Follow(context.Background(), build, &remote.Stream{
		Route: "samples?format=ndjson",
		Consume: func(body io.Reader) (int, error) {
			dec := json.NewDecoder(body)
			for n := 0; ; n++ {
				var pt api.SamplePoint
				if err := dec.Decode(&pt); err != nil {
					if err == io.EOF {
						err = nil
					}
					return n, err
				}
				pts = append(pts, pt)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestFederationPeerLossFailover kills the executing peer mid-run: the
// home server's relay breaks, the failover budget burns down against a
// dead peer, and the build fails typed — node_lost on the wire, the
// peer named in the error — exactly like a lost local node.
func TestFederationPeerLossFailover(t *testing.T) {
	fl := newFedLab(t)
	client := fl.client(t)
	ctx := context.Background()

	// The first sample from B holds the clock, synchronously, on the
	// stream that delivers it: from the instant the routed run is seen
	// live to the instant the peer is dead, the remote run cannot
	// sprint to completion.
	var release func()
	var holdOnce sync.Once
	live := make(chan struct{})
	obs := core.ObserverFuncs{Sample: func(s core.Sample) {
		if s.Node == "node2" {
			holdOnce.Do(func() {
				release = fl.clock.Hold()
				close(live)
			})
		}
	}}
	sess, err := client.StartExperiment(ctx, api.ExperimentSpec{
		Node: "node2", Device: fl.devices[1],
		Monitor: api.MonitorSpec{SampleRateHz: 500},
		Workload: api.WorkloadSpec{
			Name:   "video",
			Params: api.Params{"duration_ms": 120000},
		},
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-live:
	case <-time.After(30 * time.Second):
		t.Fatal("routed build never streamed a sample home")
	}
	defer release()
	if st, err := client.BuildStatus(ctx, sess.Build()); err != nil || st.RoutedVia != "lab-b" {
		t.Fatalf("mid-run status: routed_via=%q err=%v, want lab-b", st.RoutedVia, err)
	}

	// Kill the peer, then let the clock go.
	fl.killB()
	release()

	_, err = sess.Wait(ctx)
	if err == nil {
		t.Fatal("routed build reported success after its peer died")
	}
	if !errors.Is(err, core.ErrNodeLost) {
		t.Fatalf("Wait error = %v, want core.ErrNodeLost", err)
	}

	st, err := client.BuildStatus(ctx, sess.Build())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failure" || !st.NodeLost {
		t.Fatalf("terminal status: state=%q node_lost=%v, want a typed node-lost failure", st.State, st.NodeLost)
	}
	if !strings.Contains(st.Error, "peer") {
		t.Fatalf("terminal error %q does not name the peer loss", st.Error)
	}
}

// fanOutNode is an instant vantage point hosting one device, dev-<name>.
type fanOutNode string

func (n fanOutNode) Name() string { return string(n) }
func (n fanOutNode) Ping() error  { return nil }
func (n fanOutNode) Exec(cmd string, _ ...string) (string, error) {
	switch cmd {
	case "ping":
		return "pong", nil
	case "list_devices":
		return "dev-" + string(n), nil
	case "status":
		return "status: cpu=5.0%", nil
	}
	return "", nil
}

// fedNodeWeight spreads run durations (4–8 s) and current draws across
// the fleet deterministically by name.
func fedNodeWeight(node string) int {
	sum := 0
	for i := 0; i < len(node); i++ {
		sum += int(node[i])
	}
	return sum % 5
}

// fanOutBackend compiles a pinned spec into a run that posts a workload
// event, a sample a second and a teardown event. Its length derives from
// the node NAME, not the build ID: a build routed to the peer is assigned
// a fresh ID over there, and the arrival order of concurrent relays is
// racy, so ID-derived durations would make the sample totals drift run to
// run.
type fanOutBackend struct{ clock simclock.Clock }

func (fb fanOutBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons := accessserver.Constraints{Node: spec.Node, Device: spec.Device}
	return cons, func(ctx *accessserver.BuildContext, done func(error)) {
		feed, node := ctx.Build.Feed(), ctx.Node.Name()
		event := func(phase string) {
			feed.PostEvent(api.BuildEvent{Build: ctx.Build.ID, Node: node, Phase: phase, AtNS: fb.clock.Now().UnixNano()})
		}
		event("workload")
		w := fedNodeWeight(node)
		for i := 1; i <= 4+w; i++ {
			fb.clock.AfterFunc(time.Duration(i)*time.Second, func() {
				feed.PostSample(api.SamplePoint{AtNS: fb.clock.Now().UnixNano(), CurrentMA: float64(100 + 10*w)})
			})
		}
		fb.clock.AfterFunc(time.Duration(4+w)*time.Second, func() {
			event("teardown")
			done(nil)
		})
	}, nil
}

func (fanOutBackend) WorkloadNames() []string { return []string{"fleet"} }

// TestFederationFanOut is the peer-relay arrow under concurrency: two
// servers of four vantage points each share one virtual clock, twenty
// builds go to the home server and every second one is pinned to a node
// only the peer's census advertises — ten relays in flight at once, each
// streaming its feed home over real HTTP. Wall-clock interleaving between
// the relay goroutines and the clock driver varies run to run, so the
// test holds the schedule-invariant counts: every build succeeds, exactly
// half route, nothing is lost or dropped, and the home feed carries local
// and relayed traffic alike.
func TestFederationFanOut(t *testing.T) {
	const perServer, builds = 4, 20
	clock := simclock.NewVirtual()
	cfg := accessserver.Config{Executors: perServer, HeartbeatEvery: 5 * time.Second}
	home, peer := accessserver.New(clock, cfg), accessserver.New(clock, cfg)
	home.SetSpecBackend(fanOutBackend{clock})
	peer.SetSpecBackend(fanOutBackend{clock})
	admin, err := home.Users.Add("bench", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perServer; i++ {
		if err := home.RegisterNode(fanOutNode(fmt.Sprintf("fed-a-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := peer.RegisterNode(fanOutNode(fmt.Sprintf("fed-b-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tsHome, tsPeer := httptest.NewServer(home.Handler()), httptest.NewServer(peer.Handler())
	closeOnCleanup(t, tsHome)
	closeOnCleanup(t, tsPeer)
	home.ConfigureCluster("fleet-home", tsHome.URL, fedToken)
	peer.ConfigureCluster("fleet-peer", tsPeer.URL, fedToken)
	home.SetPeerRelay(remote.Relay)
	peer.SetPeerRelay(remote.Relay)
	defer home.StopCluster()
	defer peer.StopCluster()

	stop, driven := make(chan struct{}), make(chan struct{})
	go func() { defer close(driven); clock.DriveWhile(anyBusy(home, peer), stop) }()
	defer func() { close(stop); <-driven }()

	// Mesh join, as in newFedLab: placement knows the remote fleet before
	// any submit.
	home.StartCluster(tsPeer.URL)
	peer.StartCluster()

	all := make([]*accessserver.Build, builds)
	for i := range all {
		n := fmt.Sprintf("fed-%c-%02d", "ab"[i%2], (i/2)%perServer)
		all[i], err = home.SubmitSpec(admin, api.ExperimentSpec{
			Node: n, Device: "dev-" + n, Workload: api.WorkloadSpec{Name: "fleet"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	settled := func() (n int) {
		for _, b := range all {
			if b.State().Terminal() {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(2 * time.Minute); settled() < builds; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled with %d/%d builds unsettled", builds-settled(), builds)
		}
	}

	snap := home.MetricsSnapshot()
	for _, want := range []struct {
		name   string
		labels []string
		value  float64
	}{
		{"blab_builds_submitted_total", nil, 20},
		{"blab_builds_finished_total", []string{"result", "success"}, 20},
		{"blab_builds_finished_total", []string{"result", "failure"}, 0},
		{"blab_cluster_builds_routed_total", nil, 10},
		{"blab_cluster_peer_losses_total", nil, 0},
		{"blab_feed_events_posted_total", nil, 40},
		{"blab_feed_events_dropped_total", nil, 0},
		{"blab_feed_samples_posted_total", nil, 126},
		{"blab_feed_samples_dropped_total", nil, 0},
		{"blab_cluster_peers", []string{"state", "online"}, 1},
	} {
		if m, _ := snap.Get(want.name, metrics.L(want.labels...)...); m.Value != want.value {
			t.Errorf("%s%v = %v on the home server, want %v", want.name, want.labels, m.Value, want.value)
		}
	}
}
