package accessserver

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot*.golden.json")

// snapshotNodes are the scenario's vantage points: vp1 dies under a
// build, vp2 is drained, vp3 is removed, vp4 is owned by bob and vp5
// runs a build whose owner asked to cancel.
var snapshotNodes = []string{"vp1", "vp2", "vp3", "vp4", "vp5"}

// snapshotServer is a server on the fault tests' compressed timeline
// whose builds take 10 s, report a summary, and hang on a dead node.
func snapshotServer(t *testing.T) (*simclock.Virtual, *Server, map[string]*FlakyNode) {
	t.Helper()
	clk := simclock.NewVirtual()
	cfg := faultCfg()
	cfg.Executors = 4
	srv := New(clk, cfg)
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		cons := Constraints{Node: spec.Node, Device: spec.Device, Fallback: spec.Constraints.AllowFallback}
		return cons, func(ctx *BuildContext, done func(error)) {
			clk.AfterFunc(10*time.Second, func() {
				if _, err := ctx.Node.Exec("ping"); err != nil {
					return
				}
				ctx.Build.SetSummary(api.RunSummary{Samples: 50000, MeanMA: 120.5, EnergyMAH: 0.335, DurationNS: int64(10 * time.Second)})
				done(nil)
			})
		}, nil
	}))
	nodes := map[string]*FlakyNode{}
	for _, name := range snapshotNodes {
		nodes[name] = NewFlakyNode(fakeVP{name: name})
	}
	return clk, srv, nodes
}

// playSnapshotScenario drives a server into a state holding one build of
// every kind a snapshot can carry — succeeded (with a summary), running,
// running with a cancel requested, queued, failed over, aborted, failed —
// a job, a campaign, a ledger entry, and a dead, a drained, a removed and
// an owned node.
func playSnapshotScenario(t *testing.T) *Server {
	t.Helper()
	clk, srv, nodes := snapshotServer(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range snapshotNodes {
		must(srv.RegisterNode(nodes[name]))
	}
	// Fixed tokens: Users.Add draws random ones.
	srv.Users.restore("alice", RoleAdmin, "tok-alice")
	srv.Users.restore("bob", RoleExperimenter, "tok-bob")
	alice, _ := srv.Users.Lookup("alice")
	bob, _ := srv.Users.Lookup("bob")
	srv.SetNodeOwner("vp4", "bob")
	srv.Ledger.Grant("bob", 5, "welcome grant")

	spec := func(node string) api.ExperimentSpec {
		return api.ExperimentSpec{Node: node, Device: "dev-" + node, Workload: api.WorkloadSpec{Name: "hang"}}
	}
	submit := func(u *User, node string) *Build {
		t.Helper()
		b, err := srv.SubmitSpec(u, spec(node))
		must(err)
		return b
	}
	_, err := srv.CreateJob(bob, "nightly", spec("vp4"))
	must(err)
	must(srv.ApproveJob(alice, "nightly"))

	succeeded := submit(bob, "vp4")  // 1: runs 0–10 s
	failedOver := submit(bob, "vp1") // 2: vp1 dies at 1 s and the lease breaks
	nightly, err := srv.Submit(bob, "nightly")
	must(err) // 3: behind build 1 on vp4, running from 10 s
	must(srv.DrainNode(alice, "vp2"))
	_, camp, err := srv.SubmitCampaign(bob, api.CampaignSpec{MaxConcurrent: 1,
		Experiments: []api.ExperimentSpec{spec("vp2"), spec("vp2")}})
	must(err)                          // 4, 5: queued for the drained node
	onRemoved := submit(bob, "vp3")    // 6: running when vp3 is removed, finishes
	failedQueued := submit(bob, "vp3") // 7: queued behind 6, fails with the removal

	clk.Advance(time.Second)
	nodes["vp1"].Kill()
	must(srv.Abort(bob, camp[1].ID))
	clk.Advance(time.Second)
	must(srv.RemoveNode(alice, "vp3"))
	clk.Advance(3 * time.Second)
	cancelWanted := submit(alice, "vp5") // 8: the pipelines have no cancel hook,
	clk.Advance(time.Second)             // so it keeps running with the flag armed
	must(srv.Abort(alice, cancelWanted.ID))
	clk.Advance(5 * time.Second) // 11 s

	want := map[*Build]BuildState{
		succeeded: StateSuccess, failedOver: StateQueued, nightly: StateRunning,
		camp[0]: StateQueued, camp[1]: StateAborted, onRemoved: StateSuccess,
		failedQueued: StateFailure, cancelWanted: StateRunning,
	}
	for b, state := range want {
		if b.State() != state {
			t.Fatalf("scenario: build %d is %s, want %s (%v)", b.ID, b.State(), state, b.Err())
		}
	}
	if failedOver.Retries() != 1 || !cancelWanted.CancelRequested() {
		t.Fatalf("scenario: build %d has %d retries, build %d cancel requested %v: want 1 and true",
			failedOver.ID, failedOver.Retries(), cancelWanted.ID, cancelWanted.CancelRequested())
	}
	return srv
}

// snapshotJSON renders what a compaction would write right now.
func snapshotJSON(t *testing.T, s *Server) []byte {
	t.Helper()
	s.mu.Lock()
	snap := s.buildSnapshotLocked()
	s.mu.Unlock()
	return goldenJSON(t, snap)
}

func goldenJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// checkGolden compares got with the named testdata file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from what this code produces:\n%s", path, got)
	}
}

// TestGoldenSnapshot pins the snapshot's content and what recovery makes
// of it. Both golden files were written by the commit before builds and
// nodes kept their durable fields as store records (field-by-field
// copies out in buildSnapshotLocked and back in AttachStore): the
// scenario must still snapshot to the same bytes, and a server recovered
// from the committed snapshot must serve the same statuses.
func TestGoldenSnapshot(t *testing.T) {
	checkGolden(t, "snapshot.golden.json", snapshotJSON(t, playSnapshotScenario(t)))

	// Recover from the committed file, not from the server above.
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap store.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, err := st.BeginCompact(&snap)
	if err == nil {
		err = st.WriteSnapshot(c)
	}
	if err == nil {
		err = st.FinishCompact(c)
	}
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = store.Open(st.Dir()); err != nil {
		t.Fatal(err)
	}
	_, srv, nodes := snapshotServer(t)
	for _, name := range snapshotNodes {
		if name == "vp3" {
			continue // removed before the crash: its host does not bring it back
		}
		if err := srv.RegisterNode(nodes[name]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	recovered := struct {
		Stats  RecoveryStats
		Builds []api.BuildStatus
		Nodes  []NodeStatus
	}{Stats: stats, Nodes: srv.servedNodes()}
	for id := 1; id < snap.NextBuild; id++ {
		st, err := srv.BuildStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		recovered.Builds = append(recovered.Builds, st)
	}
	checkGolden(t, "snapshot.recovered.golden.json", goldenJSON(t, recovered))
	checkLifecycle(t, srv, "recovered from the golden snapshot")
}
