package batterylab_test

import (
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// bootDurable assembles a two-node platform and attaches the store in
// dir — the documented recovery order: spec backend, nodes, then
// AttachStore.
func bootDurable(dir string) (*simclock.Virtual, *accessserver.Server, map[string]string, *store.Store, accessserver.RecoveryStats) {
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		log.Fatal(err)
	}
	devices := map[string]string{}
	for i, name := range []string{"node1", "node2"} {
		_, dev, _, err := batterylab.NewVantagePoint(clock, plat, batterylab.VantagePointConfig{
			Name: name, Seed: 100 + uint64(i), SkipBrowsers: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		devices[name] = dev.Serial()
	}
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := plat.Access.AttachStore(st)
	if err != nil {
		log.Fatal(err)
	}
	return clock, plat.Access, devices, st, stats
}

// Persistence tour: the access server survives a crash mid-campaign.
//
// Process one attaches a WAL+snapshot store, enforces the §5 credit
// economy, and starts a four-run idle campaign — then "crashes" 30
// simulated seconds in, with two builds mid-measurement and two queued.
// Process two rebuilds the platform from scratch (fresh virtual clock,
// fresh simulated vantage points with the same seeds) over the same
// store directory: replaying snapshot+WAL brings back the users (tokens
// intact), the ledger, the campaign and every build; the interrupted
// runs go through the failover machinery and the campaign completes.
// Entirely deterministic under the virtual clock.
func Example_persistence() {
	dir, err := os.MkdirTemp("", "blab-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// where names a build's node, when its status has one.
	where := func(srv *accessserver.Server, b *accessserver.Build) string {
		st, err := srv.BuildStatus(b.ID)
		if err != nil {
			log.Fatal(err)
		}
		if st.Node != "" {
			return " on " + st.Node
		}
		return ""
	}

	// ---- process one: submit, run a bit, crash ----
	clock1, srv1, devices, st1, _ := bootDurable(dir)
	srv1.SetCreditEnforcement(true)
	boss, err := srv1.Users.Add("boss", accessserver.RoleExperimenter)
	if err != nil {
		log.Fatal(err)
	}
	srv1.Ledger.Grant("boss", 100, "starter grant")

	spec := func(node string) api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: node, Device: devices[node],
			Monitor:  api.MonitorSpec{SampleRateHz: 100},
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 120000}},
		}
	}
	campID, builds, err := srv1.SubmitCampaign(boss, api.CampaignSpec{Experiments: []api.ExperimentSpec{
		spec("node1"), spec("node2"), spec("node1"), spec("node2"),
	}})
	if err != nil {
		log.Fatal(err)
	}
	clock1.Advance(30 * time.Second)
	fmt.Printf("process 1: campaign %d, 30s in:\n", campID)
	for i, b := range builds {
		fmt.Printf("  build %d: %s%s\n", i+1, b.State(), where(srv1, b))
	}
	st1.Close()
	fmt.Println("process 1: CRASH (store closed, everything in memory lost)")

	// ---- process two: recover and finish ----
	// Enforcement is configuration, not state: each process turns it on
	// (the daemon's -credits flag); the balances themselves replay.
	clock2, srv2, _, st2, stats := bootDurable(dir)
	defer st2.Close()
	srv2.SetCreditEnforcement(true)
	fmt.Printf("process 2: recovered %d users, %d builds (%d requeued, %d resumed via failover), %d ledger entries\n",
		stats.Users, stats.Builds, stats.Requeued, stats.Resumed, stats.Ledger)
	if _, err := srv2.Users.Authenticate(boss.Token); err != nil {
		log.Fatal("boss token lost: ", err)
	}
	fmt.Println("process 2: boss token still valid")

	ids, err := srv2.CampaignBuildIDs(campID)
	if err != nil {
		log.Fatal(err)
	}
	var members []*accessserver.Build
	for _, id := range ids {
		b, err := srv2.Build(id)
		if err != nil {
			log.Fatal(err)
		}
		members = append(members, b)
	}
	settling := func() bool {
		return slices.ContainsFunc(members, func(b *accessserver.Build) bool { return !b.State().Terminal() })
	}
	if err := clock2.RunWhile(settling, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("process 2: campaign completed after restart:")
	for i, b := range members {
		retried := ""
		if b.Retries() > 0 {
			retried = fmt.Sprintf(" (failover retry %d)", b.Retries())
		}
		fmt.Printf("  build %d: %s%s%s\n", i+1, b.State(), where(srv2, b), retried)
	}
	fmt.Printf("ledger: boss balance %.1f after charges\n", srv2.Ledger.Balance("boss"))

	// Output:
	// process 1: campaign 1, 30s in:
	//   build 1: running on node1
	//   build 2: running on node2
	//   build 3: queued
	//   build 4: queued
	// process 1: CRASH (store closed, everything in memory lost)
	// process 2: recovered 1 users, 4 builds (2 requeued, 2 resumed via failover), 1 ledger entries
	// process 2: boss token still valid
	// process 2: campaign completed after restart:
	//   build 1: success on node1 (failover retry 1)
	//   build 2: success on node2 (failover retry 1)
	//   build 3: success on node1
	//   build 4: success on node2
	// ledger: boss balance 91.9 after charges
}
