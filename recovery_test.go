package batterylab

// End-to-end crash recovery: an access server with an attached
// WAL+snapshot store dies mid-campaign; a fresh process (fresh virtual
// clock, fresh simulated vantage points, same store directory)
// replays the log, reconstructs every map, routes the interrupted
// builds through the failover machinery and completes the campaign.

import (
	"errors"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// recoveryLab is a two-node platform with a persistent access server.
type recoveryLab struct {
	clk     *simclock.Virtual
	plat    *Platform
	srv     *accessserver.Server
	st      *store.Store
	devices map[string]string
}

// newRecoveryLab assembles the platform in the documented recovery
// order: spec backend (NewPlatform), vantage points, then AttachStore.
func newRecoveryLab(t *testing.T, dir string) (*recoveryLab, accessserver.RecoveryStats) {
	t.Helper()
	clk := VirtualClock()
	plat, err := NewPlatform(clk, 2019)
	if err != nil {
		t.Fatal(err)
	}
	l := &recoveryLab{clk: clk, plat: plat, srv: plat.Access, devices: map[string]string{}}
	for i, name := range []string{"node1", "node2"} {
		_, dev, _, err := NewVantagePoint(clk, plat, VantagePointConfig{
			Name: name, Seed: 100 + uint64(i), SkipBrowsers: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		l.devices[name] = dev.Serial()
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.st = st
	stats, err := l.srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	return l, stats
}

func (l *recoveryLab) idleSpec(node string) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: l.devices[node],
		Monitor:  api.MonitorSpec{SampleRateHz: 100},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 120000}},
	}
}

// TestCampaignSurvivesServerCrash is the acceptance scenario: kill the
// access server mid-campaign, restart from snapshot+WAL, and the
// campaign — including the builds that were mid-measurement at the
// crash — runs to completion on the recovered server.
func TestCampaignSurvivesServerCrash(t *testing.T) {
	dir := t.TempDir()
	l1, _ := newRecoveryLab(t, dir)
	boss, err := l1.srv.Users.Add("boss", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}

	specs := api.CampaignSpec{Experiments: []api.ExperimentSpec{
		l1.idleSpec("node1"), l1.idleSpec("node2"),
		l1.idleSpec("node1"), l1.idleSpec("node2"),
	}}
	campID, builds, err := l1.srv.SubmitCampaign(boss, specs)
	if err != nil {
		t.Fatal(err)
	}
	// 30 simulated seconds in: the first two builds are mid-measurement,
	// the other two queued behind the per-device locks.
	l1.clk.Advance(30 * time.Second)
	running, queued := 0, 0
	for _, b := range builds {
		switch b.State() {
		case accessserver.StateRunning:
			running++
		case accessserver.StateQueued:
			queued++
		}
	}
	if running == 0 || queued == 0 {
		t.Fatalf("want a mix of running and queued at the crash, got %d running %d queued", running, queued)
	}
	l1.st.Close() // crash: the whole first process is abandoned here

	// Restart. Same store directory; everything else is rebuilt from
	// scratch (fresh clock, fresh simulated hardware with the same
	// seeds, hence the same device serials).
	l2, stats := newRecoveryLab(t, dir)
	if stats.Resumed != running || stats.Requeued != queued {
		t.Fatalf("recovery stats = %+v, want %d resumed and %d requeued", stats, running, queued)
	}
	// The bootstrap user survives with their original token.
	if _, err := l2.srv.Users.Authenticate(boss.Token); err != nil {
		t.Fatalf("boss token did not survive the restart: %v", err)
	}

	ids, err := l2.srv.CampaignBuildIDs(campID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(builds) {
		t.Fatalf("campaign recovered %d builds, want %d", len(ids), len(builds))
	}
	var members []*accessserver.Build
	for _, id := range ids {
		b, err := l2.srv.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Recovered() {
			t.Fatalf("build %d not marked recovered", id)
		}
		members = append(members, b)
	}
	// Interrupted builds carry the restart failover on their feed.
	sawFailover := 0
	for _, b := range members {
		evs, _, _ := b.Feed().EventsSince(0)
		for _, e := range evs {
			if e.Phase == api.EventFailover {
				sawFailover++
				break
			}
		}
	}
	if sawFailover != running {
		t.Fatalf("%d builds carry a failover event, want %d (the interrupted ones)", sawFailover, running)
	}

	settle(t, l2.clk, l2.srv, members)
	for i, b := range members {
		if b.State() != accessserver.StateSuccess {
			t.Fatalf("post-restart build %d state = %v (%v)", i, b.State(), b.Err())
		}
	}
}

// TestRecoveryDeterministic: the same crash/restart sequence replayed
// on two labs built from identical store bytes finishes at the same
// simulated instant with identical states — recovery stays inside the
// virtual clock's determinism contract.
func TestRecoveryDeterministic(t *testing.T) {
	run := func() (time.Time, []accessserver.BuildState) {
		dir := t.TempDir()
		l1, _ := newRecoveryLab(t, dir)
		boss, err := l1.srv.Users.Add("boss", accessserver.RoleAdmin)
		if err != nil {
			t.Fatal(err)
		}
		specs := api.CampaignSpec{Experiments: []api.ExperimentSpec{
			l1.idleSpec("node1"), l1.idleSpec("node2"), l1.idleSpec("node1"),
		}}
		campID, _, err := l1.srv.SubmitCampaign(boss, specs)
		if err != nil {
			t.Fatal(err)
		}
		l1.clk.Advance(45 * time.Second)
		l1.st.Close()

		l2, _ := newRecoveryLab(t, dir)
		ids, err := l2.srv.CampaignBuildIDs(campID)
		if err != nil {
			t.Fatal(err)
		}
		var members []*accessserver.Build
		for _, id := range ids {
			b, err := l2.srv.Build(id)
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, b)
		}
		settle(t, l2.clk, l2.srv, members)
		var states []accessserver.BuildState
		for _, b := range members {
			states = append(states, b.State())
		}
		return l2.clk.Now(), states
	}
	atA, statesA := run()
	atB, statesB := run()
	if !atA.Equal(atB) {
		t.Fatalf("recovered campaigns finished at %v vs %v", atA, atB)
	}
	for i := range statesA {
		if statesA[i] != statesB[i] {
			t.Fatalf("state divergence at build %d: %v vs %v", i, statesA[i], statesB[i])
		}
	}
}

// TestInsufficientCreditsLocal: the typed §5 rejection fires through
// the in-process API once enforcement is on.
func TestInsufficientCreditsLocal(t *testing.T) {
	clk := VirtualClock()
	plat, err := NewPlatform(clk, 2019)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := NewVantagePoint(clk, plat, VantagePointConfig{
		Name: "node1", Seed: 7, SkipBrowsers: true,
	}); err != nil {
		t.Fatal(err)
	}
	srv := plat.Access
	srv.SetCreditEnforcement(true)
	exp, err := srv.Users.Add("poor", accessserver.RoleExperimenter)
	if err != nil {
		t.Fatal(err)
	}
	devs, err := srv.Nodes.Devices("node1")
	if err != nil || len(devs) == 0 {
		t.Fatalf("devices: %v %v", devs, err)
	}
	spec := api.ExperimentSpec{
		Node: "node1", Device: devs[0],
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 60000}},
	}
	if _, err := srv.SubmitSpec(exp, spec); !errors.Is(err, accessserver.ErrInsufficientCredits) {
		t.Fatalf("submit err = %v, want ErrInsufficientCredits", err)
	}
	// Contribution makes the member solvent again.
	// Hosting the vantage point earns it: an hour of attested online time.
	if err := srv.MonitorNode("node1"); err != nil {
		t.Fatal(err)
	}
	srv.SetNodeOwner("node1", "poor")
	clk.Advance(time.Hour)
	if _, err := srv.SubmitSpec(exp, spec); err != nil {
		t.Fatalf("funded submit: %v", err)
	}
}
