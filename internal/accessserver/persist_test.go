package accessserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// slowBackend compiles every spec into a pipeline that succeeds after
// a fixed simulated duration — enough scheduler surface (dispatch,
// locks, leases) without the full measurement stack.
func slowBackend(clk simclock.Clock, dur time.Duration) SpecBackend {
	return funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		cons := Constraints{Node: spec.Node, Device: spec.Device, Fallback: spec.Constraints.AllowFallback}
		run := func(ctx *BuildContext, done func(error)) {
			clk.AfterFunc(dur, func() { done(nil) })
		}
		return cons, run, nil
	})
}

func testSpec(node, device string) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: device,
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": float64(120000)}},
	}
}

// drainServer runs the virtual clock instant by instant until every
// given build is terminal.
func drainServer(t *testing.T, clk *simclock.Virtual, builds []*Build) {
	t.Helper()
	settling := func() bool {
		return slices.ContainsFunc(builds, func(b *Build) bool { return !b.State().Terminal() })
	}
	budget := clk.Now().Add(12 * time.Hour)
	if err := clk.RunWhile(settling, func() time.Time { return budget }); err != nil {
		t.Fatalf("builds did not settle: %v", err)
	}
}

// TestRecoverControlPlaneState: users (with tokens), jobs (spec,
// revision and approval — a recovered job runs), node lifecycle flags
// and the ledger all survive a restart from the WAL.
func TestRecoverControlPlaneState(t *testing.T) {
	dir := t.TempDir()
	r := newRig(t)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	// Mutations after attach are logged: a user, a job (created by an
	// experimenter, approved by the admin), node drain + owner, ledger
	// movements.
	carol, err := r.srv.Users.Add("carol", RoleExperimenter)
	if err != nil {
		t.Fatal(err)
	}
	// A grant, and the charge a finished 5-minute run of carol's pays.
	r.srv.Ledger.Grant("carol", 30, "starter grant")
	r.tb.handle("five-minutes", func(ctx *BuildContext, done func(error)) {
		r.clk.AfterFunc(5*time.Minute, func() { done(nil) })
	})
	r.srv.SetCreditEnforcement(true)
	charged, err := r.srv.SubmitSpec(carol, jobSpec("five-minutes", Constraints{Node: "node1"}))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, r.clk, []*Build{charged})
	r.srv.SetCreditEnforcement(false)
	nightly := jobSpec("nightly", Constraints{Node: "node1"})
	nightly.Workload.Params = api.Params{"browser": "Brave"}
	if _, err := r.job(r.exp, "nightly", Constraints{Node: "node1"}, noopJob); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.EditJob(r.exp, "nightly", nightly); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.ApproveJob(r.admin, "nightly"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.job(r.exp, "draft", Constraints{Node: "node1"}, noopJob); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.MonitorNode("node1"); err != nil {
		t.Fatal(err)
	}
	r.srv.SetNodeOwner("node1", "carol")
	if err := r.srv.DrainNode(r.admin, "node1"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Restart: fresh server on the same directory. The node registers
	// first (handles are live objects), then the store attaches.
	r2 := newRig(t)
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := r2.srv.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Users != 4 || stats.Jobs != 2 {
		t.Fatalf("stats = %+v, want 4 users and 2 jobs", stats)
	}

	// Tokens survive — including carol's, and the newRig-created bob is
	// replaced by the persisted bob (same name, persisted token wins).
	if _, err := r2.srv.Users.Authenticate(carol.Token); err != nil {
		t.Fatalf("carol's token did not survive: %v", err)
	}
	// The job is back whole: the spec of its second revision, approved.
	j, err := r2.srv.Job("nightly")
	if err != nil {
		t.Fatal(err)
	}
	if !j.Approved || j.Revision != 2 || j.Owner != "bob" || !reflect.DeepEqual(j.Spec, nightly) {
		t.Fatalf("recovered job = %+v, want bob's approved revision 2 with spec %+v", j, nightly)
	}
	// The unapproved one is back too, and still refuses to run.
	if d, err := r2.srv.Job("draft"); err != nil || d.Approved || d.Revision != 1 {
		t.Fatalf("recovered draft = %+v, %v; want unapproved revision 1", d, err)
	}
	if _, err := r2.srv.Submit(r2.exp, "draft"); !errors.Is(err, ErrConflict) {
		t.Fatalf("submit of the recovered unapproved job = %v, want ErrConflict", err)
	}
	// Drain flag and owner survived.
	if !r2.srv.NodeHealth("node1").Draining {
		t.Fatal("drain flag lost in restart")
	}
	// With the node back in service the recovered job submits and runs,
	// no edit needed.
	if err := r2.srv.UndrainNode(r2.admin, "node1"); err != nil {
		t.Fatal(err)
	}
	r2.tb.handle("nightly", noopJob)
	b, err := r2.srv.Submit(r2.exp, "nightly")
	if err != nil {
		t.Fatalf("submit of the recovered job: %v", err)
	}
	if b.State() != StateSuccess || !slices.Equal(r2.tb.started(), []string{"nightly"}) {
		t.Fatalf("recovered job's build: %v (%v), pipelines started %v", b.State(), b.Err(), r2.tb.started())
	}
	// Ledger balance and history replay exactly.
	if got, want := r2.srv.Ledger.Balance("carol"), 25.0; got != want {
		t.Fatalf("carol balance = %v, want %v", got, want)
	}
	if h := r2.srv.Ledger.History("carol"); len(h) != 2 || h[0].Reason != "starter grant" {
		t.Fatalf("carol history = %+v", h)
	}
}

// TestRecoverPreSpecJobRecords replays logs written when a job's body
// was a Go closure and its record held no spec: the store's v1 JSON
// golden WAL, and testdata/closurejobs, a binary WAL the last
// closure-job server wrote before "crashing" with one build of job
// "nightly" running and one queued. The jobs come back with their
// owner, revision and approval; their empty spec fails to compile,
// typed, until someone edits it. The two builds have nothing to
// recompile and fail at recovery instead of pending.
func TestRecoverPreSpecJobRecords(t *testing.T) {
	for _, c := range []struct {
		name, dir, job, owner string
		revision, failed      int
	}{
		{"v1 JSON", "store/testdata/v1wal", "exp", "ana", 3, 0},
		{"binary", "testdata/closurejobs", "nightly", "bob", 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Open mutates the log, so replay from a copy.
			dir := t.TempDir()
			for _, f := range []string{"wal.log", "snapshot.bin"} {
				data, err := os.ReadFile(filepath.Join(c.dir, f))
				if err != nil {
					continue // the v1 fixture has no snapshot
				}
				if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			clk := simclock.NewVirtual()
			srv := New(clk, Config{})
			tb := backedServer(srv)
			tb.handle("nightly", noopJob)
			if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
				t.Fatal(err)
			}
			stats, err := srv.AttachStore(st)
			if err != nil {
				t.Fatal(err)
			}
			checkLifecycle(t, srv, "after AttachStore")
			j, err := srv.Job(c.job)
			if err != nil {
				t.Fatal(err)
			}
			if j.Owner != c.owner || !j.Approved || j.Revision != c.revision || !reflect.DeepEqual(j.Spec, api.ExperimentSpec{}) {
				t.Fatalf("recovered job = %+v, want %s's approved revision %d with an empty spec", j, c.owner, c.revision)
			}
			admin, err := srv.Users.Add("root", RoleAdmin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Submit(admin, c.job); !errors.Is(err, ErrInvalid) {
				t.Fatalf("submit of a job recovered without a spec = %v, want ErrInvalid", err)
			}
			if stats.Failed != c.failed || srv.QueueLength() != 0 || srv.Running() != 0 {
				t.Fatalf("stats %+v, %d queued, %d running; want %d spec-less builds failed and none pending",
					stats, srv.QueueLength(), srv.Running(), c.failed)
			}
			for id := 1; id <= c.failed; id++ {
				if b, err := srv.Build(id); err != nil || b.State() != StateFailure || !errors.Is(b.Err(), ErrInvalid) {
					t.Fatalf("build %d: %v; %v (%v), want failed with ErrInvalid", id, err, b.State(), b.Err())
				}
			}
			// An edit gives the job a spec and it is an ordinary job again.
			if err := srv.EditJob(admin, c.job, jobSpec("nightly", Constraints{Node: "node1"})); err != nil {
				t.Fatal(err)
			}
			if b, err := srv.Submit(admin, c.job); err != nil || b.State() != StateSuccess {
				t.Fatalf("submit after the edit: %v, build %v", err, b)
			}
		})
	}
}

// TestEveryBuildStateIsTabled: the store's record codec has no second
// format for a build state outside its table, so every BuildState must be
// appendable. The constants are read from job.go's declaration, so a
// state added there without a table entry in store/codec.go fails here,
// not as a latched WAL at the first build that reaches it.
func TestEveryBuildStateIsTabled(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "job.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		if id, ok := gen.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || id.Name != "BuildState" {
			continue
		}
		for _, spec := range gen.Specs {
			for _, v := range spec.(*ast.ValueSpec).Values {
				state, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				states = append(states, state)
			}
		}
	}
	if len(states) != 5 || !slices.Contains(states, StateAborted.String()) {
		t.Fatalf("job.go declares the build states %q, want the five known ones", states)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, state := range states {
		err := st.AppendBatch([]store.Record{
			{T: store.TBuildFinished, BuildID: 1, State: state},
			{T: store.TBuildQueued, Build: &store.BuildRec{ID: 1, State: state}},
		})
		if err != nil {
			t.Errorf("state %q cannot be logged: %v", state, err)
		}
	}
}

// TestRecoverBuilds: a campaign crashes with two builds running and
// one queued. After restart the running builds go through the
// failover contract (retry, failover feed event), the queued one
// re-enqueues, and the campaign completes — while an already-finished
// build's wire status comes back byte-identical (modulo the explicit
// recovered marker).
func TestRecoverBuilds(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 2})
	srv.SetSpecBackend(slowBackend(clk, 2*time.Minute))
	if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	// A standalone build that finishes before the crash.
	fin, err := srv.SubmitSpec(admin, testSpec("node1", "devA"))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, clk, []*Build{fin})
	if fin.State() != StateSuccess {
		t.Fatalf("pre-crash build state = %v", fin.State())
	}
	preStatus, err := json.Marshal(statusOf(t, srv, fin))
	if err != nil {
		t.Fatal(err)
	}

	// The campaign: three builds on distinct devices; two dispatch
	// (executor cap), one stays queued. Then the "crash".
	cs := api.CampaignSpec{Experiments: []api.ExperimentSpec{
		testSpec("node1", "dev1"), testSpec("node1", "dev2"), testSpec("node1", "dev3"),
	}}
	campID, builds, err := srv.SubmitCampaign(admin, cs)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	if builds[0].State() != StateRunning || builds[1].State() != StateRunning || builds[2].State() != StateQueued {
		t.Fatalf("pre-crash states = %v %v %v", builds[0].State(), builds[1].State(), builds[2].State())
	}
	st.Close() // crash: the server object is abandoned mid-campaign

	// Restart on a fresh clock and server.
	clk2 := simclock.NewVirtual()
	srv2 := New(clk2, Config{Executors: 2})
	srv2.SetSpecBackend(slowBackend(clk2, 2*time.Minute))
	if err := srv2.Nodes.Register(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := srv2.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 2 || stats.Requeued != 1 {
		t.Fatalf("stats = %+v, want 2 resumed + 1 requeued", stats)
	}
	checkLifecycle(t, srv2, "after AttachStore")
	// Recovery publishes each build once — in the branch or the lifecycle
	// transition that decided its state. The dispatch that closes
	// AttachStore then makes three changes of its own: it starts two
	// builds (the executor cap) and labels the third with why it waits.
	if got, want := srv2.reads.buildPublishes, stats.Builds+3; stats.Builds != 4 || got != want {
		t.Fatalf("AttachStore published %d build statuses for %d recovered builds, want %d", got, stats.Builds, want)
	}

	// The finished build's status is byte-identical apart from the
	// recovery marker and the (empty) feed counters.
	stRec := statusOf(t, srv2, fin)
	if !stRec.Recovered {
		t.Fatal("recovered build not marked recovered")
	}
	if stRec.FeedEpoch != 1 {
		t.Fatalf("recovered build feed_epoch = %d, want 1 (one feed restart)", stRec.FeedEpoch)
	}
	// Recovered and FeedEpoch are the explicit recovery markers; the
	// rest of the status must be byte-identical.
	stRec.Recovered = false
	stRec.FeedEpoch = 0
	postStatus, err := json.Marshal(stRec)
	if err != nil {
		t.Fatal(err)
	}
	if string(preStatus) != string(postStatus) {
		t.Fatalf("finished build status changed across restart:\n pre %s\npost %s", preStatus, postStatus)
	}

	// Campaign membership is intact; the interrupted builds carry a
	// failover event and a consumed retry.
	ids, err := srv2.CampaignBuildIDs(campID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("campaign has %d builds, want 3", len(ids))
	}
	var members []*Build
	for _, id := range ids {
		b, err := srv2.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, b)
	}
	if members[0].Retries() != 1 {
		t.Fatalf("interrupted build retries = %d, want 1", members[0].Retries())
	}
	evs, _, _ := members[0].Feed().EventsSince(0)
	sawFailover := false
	for _, e := range evs {
		if e.Phase == api.EventFailover && strings.Contains(e.Error, "restarted") {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("no restart failover event on the interrupted build's feed")
	}

	// The campaign runs to completion after restart.
	drainServer(t, clk2, members)
	for i, b := range members {
		if b.State() != StateSuccess {
			t.Fatalf("post-restart build %d state = %v (%v)", i, b.State(), b.Err())
		}
	}
}

// TestRecoverRetryBudgetSpent: a build that already burned its
// failover budget and was running at the crash fails with the typed
// ErrNodeLost instead of looping forever.
func TestRecoverRetryBudgetSpent(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{MaxRetries: -1}) // negative = zero budget
	srv.SetSpecBackend(slowBackend(clk, 2*time.Minute))
	if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	st, _ := store.Open(dir)
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	b, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if b.State() != StateRunning {
		t.Fatalf("state = %v, want running", b.State())
	}
	st.Close()

	clk2 := simclock.NewVirtual()
	srv2 := New(clk2, Config{MaxRetries: -1})
	srv2.SetSpecBackend(slowBackend(clk2, 2*time.Minute))
	srv2.Nodes.Register(staticNode{name: "node1"})
	st2, _ := store.Open(dir)
	stats, err := srv2.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 failed", stats)
	}
	checkLifecycle(t, srv2, "after AttachStore")
	rb, err := srv2.Build(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rb.State() != StateFailure || !errors.Is(rb.Err(), ErrNodeLost) {
		t.Fatalf("state=%v err=%v, want failure wrapping ErrNodeLost", rb.State(), rb.Err())
	}
}

// TestRecoverCanceledRunningBuild: an abort of a running build that
// never settled before the crash recovers as aborted — not as a rerun
// of an experiment its owner canceled.
func TestRecoverCanceledRunningBuild(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetSpecBackend(slowBackend(clk, 2*time.Minute))
	srv.Nodes.Register(staticNode{name: "node1"})
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	st, _ := store.Open(dir)
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	b, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if b.State() != StateRunning {
		t.Fatalf("state = %v, want running", b.State())
	}
	// slowBackend registers no cancel hook, so the abort arms the
	// pending flag and the build stays running — then the crash.
	if err := srv.Abort(admin, b.ID); err != nil {
		t.Fatal(err)
	}
	st.Close()

	clk2 := simclock.NewVirtual()
	srv2 := New(clk2, Config{})
	srv2.SetSpecBackend(slowBackend(clk2, 2*time.Minute))
	srv2.Nodes.Register(staticNode{name: "node1"})
	st2, _ := store.Open(dir)
	if _, err := srv2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	rb, err := srv2.Build(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rb.State() != StateAborted {
		t.Fatalf("recovered state = %v, want aborted", rb.State())
	}
	if !rb.CancelRequested() {
		t.Fatal("recovered build lost its canceled marker")
	}
	checkLifecycle(t, srv2, "after AttachStore")
}

// TestRecoveredTombstonesStayExpired: builds evicted to tombstones
// before the crash still answer ErrExpired after recovery.
func TestRecoveredTombstonesStayExpired(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Retention: time.Hour})
	srv.SetSpecBackend(slowBackend(clk, time.Minute))
	srv.Nodes.Register(staticNode{name: "node1"})
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	st, _ := store.Open(dir)
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	b, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, clk, []*Build{b})
	clk.Advance(2 * time.Hour) // past retention: evicted to a tombstone
	if _, err := srv.Build(b.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("pre-crash expired build err = %v", err)
	}
	st.Close()

	clk2 := simclock.NewVirtual()
	srv2 := New(clk2, Config{Retention: time.Hour})
	srv2.SetSpecBackend(slowBackend(clk2, time.Minute))
	srv2.Nodes.Register(staticNode{name: "node1"})
	st2, _ := store.Open(dir)
	if _, err := srv2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Build(b.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("post-restart expired build err = %v, want ErrExpired", err)
	}
}

// TestSnapshotCompactionRoundTrip: state recovered from snapshot+WAL
// equals state recovered from WAL alone.
func TestSnapshotCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetSpecBackend(slowBackend(clk, time.Minute))
	srv.Nodes.Register(staticNode{name: "node1"})
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	st, _ := store.Open(dir)
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	b1, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, clk, []*Build{b1})
	if err := srv.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if st.Appended() != 0 {
		t.Fatalf("WAL not truncated by compaction: %d records", st.Appended())
	}
	// More state on top of the snapshot.
	b2, err := srv.SubmitSpec(admin, testSpec("node1", "dev2"))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, clk, []*Build{b2})
	st.Close()

	clk2 := simclock.NewVirtual()
	srv2 := New(clk2, Config{})
	srv2.SetSpecBackend(slowBackend(clk2, time.Minute))
	srv2.Nodes.Register(staticNode{name: "node1"})
	st2, _ := store.Open(dir)
	stats, err := srv2.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Builds != 2 {
		t.Fatalf("recovered %d builds, want 2 (one from snapshot, one from WAL)", stats.Builds)
	}
	for _, id := range []int{b1.ID, b2.ID} {
		rb, err := srv2.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		if rb.State() != StateSuccess {
			t.Fatalf("build %d state = %v, want success", id, rb.State())
		}
	}
}

// TestPeriodicCompaction: the snapshot ticker compacts the WAL on the
// server clock once records accumulate.
func TestPeriodicCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{SnapshotEvery: 5 * time.Minute})
	st, _ := store.Open(dir)
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Users.Add("dana", RoleExperimenter); err != nil {
		t.Fatal(err)
	}
	if st.Appended() == 0 {
		t.Fatal("user creation not logged")
	}
	clk.Advance(6 * time.Minute)
	if st.Appended() != 0 {
		t.Fatalf("ticker did not compact: %d records pending", st.Appended())
	}
	snap, _ := st.Load()
	if snap == nil || len(snap.Users) != 1 {
		t.Fatalf("snapshot missing the user: %+v", snap)
	}
}

// TestFailedAppendLatches: a critical section whose write fails loses its
// records together and latches durability off — one error counted, later
// sections write nothing, /readyz answers 503 — until a compaction
// snapshots what the WAL missed. The first failure is a record the codec
// refuses, which leaves the file healthy, so the lift can be seen; the
// second is the file closed under the server.
func TestFailedAppendLatches(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.ExpectDurable()
	srv.SetSpecBackend(slowBackend(clk, time.Hour))
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	check := func(when string, wantErrors float64, wantReady int) {
		t.Helper()
		mv, _ := srv.MetricsSnapshot().Get("blab_wal_append_errors_total")
		if mv.Value != wantErrors {
			t.Fatalf("%s: blab_wal_append_errors_total = %v, want %v", when, mv.Value, wantErrors)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantReady {
			t.Fatalf("%s: /readyz = %d, want %d", when, resp.StatusCode, wantReady)
		}
	}
	submit := func() {
		t.Helper()
		if _, err := srv.SubmitSpec(admin, testSpec("node1", "devA")); err != nil {
			t.Fatal(err)
		}
	}
	check("healthy", 0, http.StatusOK)

	// One section logs a build and a record of no known type: the batch
	// fails as a whole.
	w0, r0 := walCounts(srv)
	srv.mu.Lock()
	srv.enqueueLocked(admin.Name, "spec:lost", 0, Constraints{Node: "node1"}, nil, nil)
	srv.logStore(store.Record{T: "no_such_type"})
	srv.mu.Unlock()
	check("after the failed section", 1, http.StatusServiceUnavailable)
	submit()
	if w1, r1 := walCounts(srv); w1 != w0+1 || r1 != r0 {
		t.Fatalf("latched: %d writes tried and %d records written since the failure, want the failed write and nothing after", w1-w0, r1-r0)
	}
	check("after a later section", 1, http.StatusServiceUnavailable)
	if srv.DurableDrift() == nil {
		t.Fatal("two builds were never logged, yet the store replays to the server")
	}

	// A successful compaction holds everything the WAL missed.
	if err := srv.CompactStore(); err != nil {
		t.Fatal(err)
	}
	check("after compaction", 1, http.StatusOK)
	submit()
	if _, r1 := walCounts(srv); r1 <= r0 {
		t.Fatal("appends did not resume after the compaction")
	}
	if err := srv.DurableDrift(); err != nil {
		t.Fatalf("healed: %v", err)
	}

	st.Close()
	submit()
	check("file closed under the server", 2, http.StatusServiceUnavailable)
}

// staticNode is a minimal always-up Node.
type staticNode struct{ name string }

func (n staticNode) Name() string { return n.name }
func (n staticNode) Exec(cmd string, args ...string) (string, error) {
	if cmd == "list_devices" {
		return "dev1\ndev2\ndev3", nil
	}
	return "ok", nil
}

// Ping implements Pinger so heartbeat probes run synchronously on the
// clock goroutine — deterministic under the virtual clock.
func (n staticNode) Ping() error { return nil }

// TestCreditGateAndCharge: with enforcement on, an experimenter with
// no credits is rejected with the typed error; granted credits they
// run, and the finished build debits its actual device time.
func TestCreditGateAndCharge(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetCreditEnforcement(true)
	srv.SetSpecBackend(slowBackend(clk, 2*time.Minute))
	srv.Nodes.Register(staticNode{name: "node1"})
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	exp, _ := srv.Users.Add("bob", RoleExperimenter)

	if _, err := srv.SubmitSpec(exp, testSpec("node1", "dev1")); !errors.Is(err, ErrInsufficientCredits) {
		t.Fatalf("broke submit err = %v, want ErrInsufficientCredits", err)
	}
	// Campaigns gate on the whole batch.
	cs := api.CampaignSpec{Experiments: []api.ExperimentSpec{
		testSpec("node1", "dev1"), testSpec("node1", "dev2"),
	}}
	srv.Ledger.Grant("bob", 1.5, "not enough for two")
	if _, _, err := srv.SubmitCampaign(exp, cs); !errors.Is(err, ErrInsufficientCredits) {
		t.Fatalf("campaign submit err = %v, want ErrInsufficientCredits", err)
	}
	// Admins are exempt.
	if _, err := srv.SubmitSpec(admin, testSpec("node1", "dev3")); err != nil {
		t.Fatalf("admin submit gated: %v", err)
	}

	srv.Ledger.Grant("bob", 8.5, "starter grant") // now 10
	b, err := srv.SubmitSpec(exp, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatalf("funded submit: %v", err)
	}
	drainServer(t, clk, []*Build{b})
	if b.State() != StateSuccess {
		t.Fatalf("state = %v (%v)", b.State(), b.Err())
	}
	// The 2-minute run cost 2 credits: 10 - 2 = 8.
	if got := srv.Ledger.Balance("bob"); got != 8 {
		t.Fatalf("post-run balance = %v, want 8", got)
	}
}

// TestContributionAccrual: heartbeats of an owned monitored node
// accrue the §5 contribution credits for attested online time,
// flushed to the ledger in coalesced 15-minute lumps (one history
// entry per lump, not per beat).
func TestContributionAccrual(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.Nodes.Register(staticNode{name: "node1"})
	if err := srv.MonitorNode("node1"); err != nil {
		t.Fatal(err)
	}
	srv.SetNodeOwner("node1", "carol")
	clk.Advance(time.Hour)
	// One hour of 15 s heartbeats at ContributionRate 4/h ≈ 4 credits.
	got := srv.Ledger.Balance("carol")
	if got < 3.9 || got > 4.1 {
		t.Fatalf("carol accrued %v credits over an hour, want ~4", got)
	}
	// Coalescing: an hour of 15 s beats lands as ~4 flush entries, not
	// ~240 per-beat rows.
	if h := srv.Ledger.History("carol"); len(h) > 5 {
		t.Fatalf("contribution history has %d entries for one hour, want coalesced (~4)", len(h))
	}
	// Accrual keeps flowing in lumps: another half hour adds ~2 more.
	before := srv.Ledger.Balance("carol")
	clk.Advance(30 * time.Minute)
	after := srv.Ledger.Balance("carol")
	if after <= before {
		t.Fatalf("no accrual across 30 minutes: %v -> %v", before, after)
	}
	// An ownership transfer flushes the outgoing owner's sub-threshold
	// remainder instead of handing it to the successor.
	clk.Advance(10 * time.Minute) // below the 15m lump: owed, unflushed
	preTransfer := srv.Ledger.Balance("carol")
	srv.SetNodeOwner("node1", "dave")
	if got := srv.Ledger.Balance("carol"); got <= preTransfer {
		t.Fatalf("transfer did not flush carol's owed hosting: %v -> %v", preTransfer, got)
	}
	if got := srv.Ledger.Balance("dave"); got != 0 {
		t.Fatalf("dave inherited %v credits of carol's hosting time", got)
	}
}

// TestInsufficientCreditsOverV1: the typed rejection crosses the wire
// as a 402 with code insufficient_credits.
func TestInsufficientCreditsOverV1(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetCreditEnforcement(true)
	srv.SetSpecBackend(slowBackend(clk, time.Minute))
	srv.Nodes.Register(staticNode{name: "node1"})
	exp, _ := srv.Users.Add("bob", RoleExperimenter)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := strings.NewReader(`{"node":"node1","device":"dev1","workload":{"name":"idle"}}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/experiments", body)
	req.Header.Set("Authorization", "Bearer "+exp.Token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("status = %d, want 402", resp.StatusCode)
	}
	var env api.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeInsufficientCredits {
		t.Fatalf("envelope = %+v, want code insufficient_credits", env.Error)
	}
}

// TestNodeOwnerRoute: ownership — the earning half of the §5 economy —
// is assignable over the v1 API, admin-gated, and starts accrual.
func TestNodeOwnerRoute(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.Nodes.Register(staticNode{name: "node1"})
	if err := srv.MonitorNode("node1"); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	exp, _ := srv.Users.Add("bob", RoleExperimenter)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(token, node, owner string) int {
		body := strings.NewReader(fmt.Sprintf(`{"owner":%q}`, owner))
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/nodes/"+node+"/owner", body)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(exp.Token, "node1", "bob"); code != http.StatusForbidden {
		t.Fatalf("experimenter set owner: status %d, want 403", code)
	}
	if code := post(admin.Token, "ghost", "bob"); code != http.StatusNotFound {
		t.Fatalf("unknown node: status %d, want 404", code)
	}
	if code := post(admin.Token, "node1", "nobody"); code != http.StatusNotFound {
		t.Fatalf("unknown member: status %d, want 404", code)
	}
	if code := post(admin.Token, "node1", "bob"); code != http.StatusOK {
		t.Fatalf("admin set owner: status %d, want 200", code)
	}
	clk.Advance(time.Hour)
	if got := srv.Ledger.Balance("bob"); got < 3.9 {
		t.Fatalf("bob accrued %v over an hour of hosting, want ~4", got)
	}
}

// TestDroppedCountersOnStatus: feed losses surface in the wire status
// instead of silently truncating the replay.
func TestDroppedCountersOnStatus(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		run := func(ctx *BuildContext, done func(error)) {
			feed := ctx.Build.Feed()
			for i := 0; i < feedhub.EventCap+5; i++ {
				feed.PostEvent(api.BuildEvent{Build: ctx.Build.ID, Phase: "workload"})
			}
			for i := 0; i < 3; i++ {
				feed.PostSample(api.SamplePoint{AtNS: int64(i), CurrentMA: 1})
			}
			done(nil)
		}
		return Constraints{Node: spec.Node}, run, nil
	}))
	srv.Nodes.Register(staticNode{name: "node1"})
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	b, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, clk, []*Build{b})
	st := statusOf(t, srv, b)
	if st.DroppedEvents != 5 {
		t.Fatalf("dropped_events = %d, want 5", st.DroppedEvents)
	}
	if st.DroppedSamples != 0 {
		t.Fatalf("dropped_samples = %d, want 0", st.DroppedSamples)
	}
}

// TestSampleStreamCursor: GET /builds/{id}/samples honors ?from= so a
// reconnecting client resumes instead of replaying (or losing) the
// prefix.
func TestSampleStreamCursor(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		run := func(ctx *BuildContext, done func(error)) {
			for i := 0; i < 5; i++ {
				ctx.Build.Feed().PostSample(api.SamplePoint{AtNS: int64(i), CurrentMA: float64(i)})
			}
			done(nil)
		}
		return Constraints{Node: spec.Node}, run, nil
	}))
	srv.Nodes.Register(staticNode{name: "node1"})
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	b, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, clk, []*Build{b})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/api/v1/builds/%d/samples?format=ndjson&from=3", ts.URL, b.ID), nil)
	req.Header.Set("Authorization", "Bearer "+admin.Token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var got []api.SamplePoint
	for dec.More() {
		var p api.SamplePoint
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if len(got) != 2 || got[0].AtNS != 3 || got[1].AtNS != 4 {
		t.Fatalf("?from=3 returned %+v, want samples 3 and 4", got)
	}
}
