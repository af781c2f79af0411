package accessserver_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/schedsim"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
)

// observeCensus makes a script fail the test at the first event after
// which the incrementally published census differs from a full rebuild,
// the queue's own bookkeeping no longer holds, what the lifecycle
// transitions maintain differs from a recount over the builds, the
// store it attaches replays to something other than the server's state,
// or a placement class caches something an uncached placement would not
// give.
func observeCensus(t *testing.T, script *schedsim.Script) *int {
	t.Helper()
	events := new(int)
	script.AfterEvent = func(srv *accessserver.Server) {
		*events++
		if *events == 1 {
			// From the first event on the script runs durably, so that
			// DurableDrift has a log to hold the server against.
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if _, err := srv.AttachStore(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.CensusDrift(); err != nil {
			t.Fatalf("after event %d: %v", *events, err)
		}
		if err := srv.QueueDrift(); err != nil {
			t.Fatalf("after event %d: %v", *events, err)
		}
		if err := srv.LifecycleDrift(); err != nil {
			t.Fatalf("after event %d: %v", *events, err)
		}
		if err := srv.DurableDrift(); err != nil {
			t.Fatalf("after event %d: %v", *events, err)
		}
		if err := srv.PlacementDrift(); err != nil {
			t.Fatalf("after event %d: %v", *events, err)
		}
	}
	return events
}

// TestCensusMatchesOracleRichScript replays the determinism workhorse —
// kill, kill+revive, late registration, failover requeues with backoff,
// pinned and fallback builds — and compares the census with the oracle
// after every clock deadline.
func TestCensusMatchesOracleRichScript(t *testing.T) {
	script := schedsim.RichScript()
	events := observeCensus(t, &script)
	if _, err := schedsim.Run(script); err != nil {
		t.Fatal(err)
	}
	if *events < 50 {
		t.Fatalf("only %d events observed; the script should fire hundreds", *events)
	}
}

// TestCensusMatchesOracleAdminScript covers the transitions the fleet
// vocabulary cannot script: drain and undrain, removal under queued
// pinned builds, aborts of queued and running builds, builds aging out
// for a node that never registers, nodes registered and dropped straight
// through the registry, and a job edited (its queued builds stay on the node of
// the revision they were submitted at; later submits follow the edit)
// and deleted under its queued builds.
func TestCensusMatchesOracleAdminScript(t *testing.T) {
	script, verify := adminScript(t)
	events := observeCensus(t, script)
	res, err := schedsim.Run(*script)
	if err != nil {
		t.Fatal(err)
	}
	if *events < 50 {
		t.Fatalf("only %d events observed", *events)
	}
	verify(res)
}

// TestInProcessStatusIsTheWireStatus replays the admin script with a
// retention shorter than the run and, after every event, holds each
// build's in-process status — json.Marshal(srv.BuildStatus(id)) and the
// newline the route writes — to the body GET /api/v1/builds/{id} answers,
// byte for byte, expired builds included; an id never issued is
// ErrNotFound in process and 404 on the wire. The in-process reads take
// the scheduler lock no times.
func TestInProcessStatusIsTheWireStatus(t *testing.T) {
	script, _ := adminScript(t)
	script.Config.Retention = 40 * time.Second
	var viewer *accessserver.User
	expired := 0
	get := func(srv *accessserver.Server, id int) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/api/v1/builds/"+strconv.Itoa(id), nil)
		req.Header.Set("Authorization", "Bearer "+viewer.Token)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}
	script.AfterEvent = func(srv *accessserver.Server) {
		if viewer == nil {
			var err error
			if viewer, err = srv.Users.Add("viewer", accessserver.RoleExperimenter); err != nil {
				t.Fatal(err)
			}
		}
		locks := srv.SchedLockAcquisitions()
		var bodies [][]byte
		for id := 1; ; id++ {
			st, err := srv.BuildStatus(id)
			if errors.Is(err, accessserver.ErrNotFound) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.State == api.StateExpired {
				expired++
			}
			body, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, append(body, '\n'))
		}
		if n := srv.SchedLockAcquisitions() - locks; n != 0 {
			t.Fatalf("%d in-process status reads took the scheduler lock %d times", len(bodies)+1, n)
		}
		for i, want := range bodies {
			if rec := get(srv, i+1); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("build %d: the route answers %d %s, in process it is %s", i+1, rec.Code, rec.Body.Bytes(), want)
			}
		}
		if rec := get(srv, len(bodies)+1); rec.Code != 404 {
			t.Fatalf("build %d was never issued, the route answers %d %s", len(bodies)+1, rec.Code, rec.Body.Bytes())
		}
	}
	if _, err := schedsim.Run(*script); err != nil {
		t.Fatal(err)
	}
	if expired == 0 {
		t.Fatal("no build expired during the run: the expired marker was never compared")
	}
}

// adminScript builds the scenario of TestCensusMatchesOracleAdminScript.
// Two of its actions call script.AfterEvent themselves, so the caller
// sets the hook on the returned script before running it; verify fails
// the test unless the run exercised what the scenario claims to.
func adminScript(t *testing.T) (script *schedsim.Script, verify func(schedsim.Result)) {
	script = &schedsim.Script{
		Nodes: []schedsim.NodeSpec{
			{Name: "a", Devices: []string{"pixel4-a"}},
			{Name: "b", Devices: []string{"pixel4-b"}, KillAt: 25 * time.Second},
			{Name: "c", Devices: []string{"motog5-c"}},
			{Name: "d", Devices: []string{"motog5-d"}},
		},
		Config: accessserver.Config{PendingTimeout: 2 * time.Minute, Executors: 3},
	}
	pin := []struct{ node, dev string }{
		{"a", "pixel4-a"}, {"b", "pixel4-b"}, {"c", "motog5-c"}, {"d", "motog5-d"},
		{"ghost", "pixel4-x"}, // never registers: ages out
	}
	for i := 0; i < 30; i++ {
		p := pin[i%len(pin)]
		script.Builds = append(script.Builds, schedsim.BuildSpec{
			Owner: "ana", Node: p.node, Device: p.dev,
			Fallback: i%3 == 0 && p.node != "ghost",
			Duration: time.Duration(6+i%5) * time.Second,
			SubmitAt: time.Duration(i%4) * 2 * time.Second,
		})
	}

	var admin *accessserver.User
	var jobBuilds []*accessserver.Build
	dropped := false
	// The script's backend compiles "sim" workloads; sync ones finish at
	// once.
	nightly := func(node, dev string) api.ExperimentSpec {
		return api.ExperimentSpec{Node: node, Device: dev,
			Workload: api.WorkloadSpec{Name: "sim", Params: api.Params{"sync": true}}}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	script.Actions = []schedsim.Action{
		{Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			var err error
			admin, err = srv.Users.Add("root", accessserver.RoleAdmin)
			must(err)
			// Job builds queue behind the spec builds on node c.
			_, err = srv.CreateJob(admin, "nightly", nightly("c", "motog5-c"))
			must(err)
			for i := 0; i < 4; i++ {
				b, err := srv.Submit(admin, "nightly")
				must(err)
				jobBuilds = append(jobBuilds, b)
			}
		}},
		{At: 3 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			must(srv.DrainNode(admin, "a"))
		}},
		{At: 5 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			// The job's preferred node moves from c to d. Its queued builds
			// keep the revision they were submitted at and stay counted on
			// c; the submits at 13 s count on d.
			must(srv.EditJob(admin, "nightly", nightly("d", "motog5-d")))
		}},
		{At: 7 * time.Second, Do: func(srv *accessserver.Server, builds []*accessserver.Build) {
			// One queued, one running (whichever the schedule made them;
			// the running one has no cancel hook and runs to its end with
			// the cancel flag armed).
			for _, b := range builds {
				if b != nil && b.State() == accessserver.StateQueued {
					must(srv.Abort(admin, b.ID))
					break
				}
			}
			for _, b := range builds {
				if b != nil && b.State() == accessserver.StateRunning {
					must(srv.Abort(admin, b.ID))
					break
				}
			}
		}},
		{At: 9 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			// A vantage point that bypasses RegisterNode: no heartbeat. It
			// is in the census when Register returns, before the kick or
			// any other transition.
			must(srv.Nodes.Register(plainNode("e")))
			script.AfterEvent(srv)
			srv.Kick()
		}},
		{At: 10 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			// Its first durable change; and a row appears for a node that
			// beats without ever registering.
			must(srv.DrainNode(admin, "e"))
			srv.Heartbeat("stray")
		}},
		{At: 11 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			must(srv.UndrainNode(admin, "a"))
		}},
		{At: 13 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			for i := 0; i < 3; i++ {
				b, err := srv.Submit(admin, "nightly")
				must(err)
				jobBuilds = append(jobBuilds, b)
			}
			must(srv.DeleteJob(admin, "nightly"))
		}},
		{At: 15 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			must(srv.RemoveNode(admin, "c"))
		}},
		{At: 40 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			// c comes back through the plain registry: the tombstone ends
			// there and then, in the census and in the log.
			must(srv.Nodes.Register(plainNode("c")))
			script.AfterEvent(srv)
			srv.Kick()
		}},
		{At: 42 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			// A monitored node leaves through the plain registry: offline
			// at once, its probe gone; what is still queued for it ages out.
			must(srv.Nodes.Remove("d"))
			dropped = true
		}},
	}
	return script, func(res schedsim.Result) {
		t.Helper()
		states := map[string]int{}
		aged, failovers := 0, 0
		for _, b := range res.Builds {
			states[b.State]++
			failovers += b.Failovers
			if b.NodeLost && b.Attempts == 0 {
				aged++
			}
		}
		if states["aborted"] == 0 || states["success"] == 0 || aged == 0 || failovers == 0 {
			t.Fatalf("script outcome %v, %d failed without ever dispatching, %d failovers: want aborts, successes, aged-out builds and failovers",
				states, aged, failovers)
		}
		deleted := 0
		for _, b := range jobBuilds {
			if b.State() == accessserver.StateFailure {
				deleted++
			}
		}
		if deleted == 0 {
			t.Fatal("no job build failed under DeleteJob: the delete path was not exercised")
		}
		if !dropped {
			t.Fatal("the script ended before d left through the registry at 42 s")
		}
	}
}

// TestLifecycleMatchesRecountChurnScript drives the transitions through
// their other callers: nodes dying under running builds (one comes back),
// an abort of a running build whose node then dies, an abort of a build
// sitting out its failover backoff, and a node removed under the builds
// queued for it.
func TestLifecycleMatchesRecountChurnScript(t *testing.T) {
	script := schedsim.Script{
		Nodes: []schedsim.NodeSpec{
			{Name: "a", Devices: []string{"pixel4-a"}, KillAt: 12 * time.Second, ReviveAt: 90 * time.Second},
			{Name: "b", Devices: []string{"pixel4-b"}, KillAt: 21 * time.Second},
			{Name: "c", Devices: []string{"motog5-c"}},
		},
	}
	pin := []struct{ node, dev string }{{"a", "pixel4-a"}, {"b", "pixel4-b"}, {"c", "motog5-c"}}
	for i := 0; i < 18; i++ {
		p := pin[i%len(pin)]
		script.Builds = append(script.Builds, schedsim.BuildSpec{
			Owner: "ana", Node: p.node, Device: p.dev, Fallback: i%2 == 0,
			Duration: time.Duration(15+i%4) * time.Second,
			SubmitAt: time.Duration(i/3) * time.Second,
		})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var server *accessserver.Server
	var admin *accessserver.User
	var canceledOnA, abortedInBackoff *accessserver.Build
	script.Actions = []schedsim.Action{
		{Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			server = srv
			var err error
			admin, err = srv.Users.Add("root", accessserver.RoleAdmin)
			must(err)
		}},
		{At: 10 * time.Second, Do: func(srv *accessserver.Server, builds []*accessserver.Build) {
			// The script's pipelines register no cancel hook: the build keeps
			// running with the flag armed, and a dies under it at 12 s.
			for _, b := range builds {
				if b != nil && b.State() == accessserver.StateRunning && publishedStatus(t, srv, b).Node == "a" {
					must(srv.Abort(admin, b.ID))
					canceledOnA = b
				}
			}
		}},
		{At: 43 * time.Second, Do: func(srv *accessserver.Server, builds []*accessserver.Build) {
			// b's lease broke at 41 s; its build waits out a 5 s backoff.
			for _, b := range builds {
				if b != nil && b.State() == accessserver.StateQueued && b.Retries() > 0 && publishedStatus(t, srv, b).Node == "b" {
					must(srv.Abort(admin, b.ID))
					if b.State() != accessserver.StateAborted {
						t.Errorf("build %d aborted in its backoff reads %s", b.ID, b.State())
					}
					abortedInBackoff = b
					break
				}
			}
		}},
		{At: 60 * time.Second, Do: func(srv *accessserver.Server, _ []*accessserver.Build) {
			must(srv.RemoveNode(admin, "b"))
		}},
	}
	events := observeCensus(t, &script)
	res, err := schedsim.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if *events < 50 {
		t.Fatalf("only %d events observed", *events)
	}
	if canceledOnA == nil {
		t.Fatal("no build was running on a at 10 s: the cancel-then-lose path was not exercised")
	}
	if st := publishedStatus(t, server, canceledOnA); st.State != "aborted" || st.Attempts != 1 {
		t.Fatalf("the build canceled on a before it died: %+v, want aborted on its only attempt", st)
	}
	if abortedInBackoff == nil {
		t.Fatal("no build was sitting out a backoff at 43 s: the abort-in-backoff path was not exercised")
	}
	states := map[string]int{}
	removed := 0
	for _, b := range res.Builds {
		states[b.State]++
		if b.NodeLost && strings.Contains(b.Err, "removed") {
			removed++
		}
	}
	if states["success"] == 0 || states["aborted"] < 2 || removed == 0 {
		t.Fatalf("script outcome %v, %d failed by the removal: want successes, both aborts and removal failures", states, removed)
	}
}

// publishedStatus is b's status as a v1 client reads it.
func publishedStatus(t *testing.T, srv *accessserver.Server, b *accessserver.Build) api.BuildStatus {
	t.Helper()
	st, err := srv.BuildStatus(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// plainNode is a vantage point handle with no behaviour, for nodes that
// enter through the bare registry.
type plainNode string

func (n plainNode) Name() string { return string(n) }
func (n plainNode) Exec(cmd string, args ...string) (string, error) {
	return "", nil
}
