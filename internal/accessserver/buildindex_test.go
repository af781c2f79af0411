package accessserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// readRoutes are the GET routes that resolve a build id, by name: the
// build's status, its campaign's, its two streams, its artifact list,
// one artifact and its analytics. A route takes a build id and the id of
// its campaign.
var readRoutes = []struct {
	name string
	path func(build, campaign int) string
}{
	{"status", func(b, _ int) string { return fmt.Sprintf("/api/v1/builds/%d", b) }},
	{"campaign", func(_, c int) string { return fmt.Sprintf("/api/v1/campaigns/%d", c) }},
	{"events", func(b, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/events", b) }},
	{"samples", func(b, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/samples", b) }},
	{"artifacts", func(b, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/artifacts", b) }},
	{"trace", func(b, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/artifacts/current.trace", b) }},
	{"analytics", func(b, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/analytics", b) }},
}

// TestReadRoutesTakeNoSchedLock: once a build has settled, reading it
// through every route that resolves a build id — status, campaign, both
// streams, the artifact list, an artifact and analytics — never takes
// the scheduler lock: each resolves the id through the read plane.
func TestReadRoutesTakeNoSchedLock(t *testing.T) {
	v := newV1Rig(t)
	before := v.srv.SchedLockAcquisitions()
	for range 10 {
		for _, rt := range readRoutes {
			resp := v.request(t, "GET", rt.path(v.doneBuild, v.campaign), v.admin.Token, "")
			readBody(t, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", rt.name, resp.StatusCode)
			}
		}
	}
	if after := v.srv.SchedLockAcquisitions(); after != before {
		t.Fatalf("70 reads of a settled build took the scheduler lock %d times, want 0", after-before)
	}
}

// tracedBackend compiles every spec into a pipeline that saves the stub
// trace and succeeds a minute of clk later.
func tracedBackend(clk simclock.Clock) SpecBackend {
	return funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		run := func(ctx *BuildContext, done func(error)) {
			clk.AfterFunc(time.Minute, func() {
				ctx.Build.Workspace().Save("current.trace", stubTraceBytes())
				done(nil)
			})
		}
		return Constraints{Node: spec.Node, Device: spec.Device}, run, nil
	})
}

// TestBuildIDResolution reads build ids in every state a read route can
// meet — queued, running, settled, expired in process, expired before a
// restart, never issued, 0 and -1 — through every route that resolves
// one, and pins each answer's HTTP status and error code. A stream is
// read on a request whose context has ended, so it answers at once.
func TestBuildIDResolution(t *testing.T) {
	dir := t.TempDir()
	// The admin is added once: the second boot recovers the account,
	// token and all.
	var admin *User
	boot := func() (*Server, *simclock.Virtual, *store.Store) {
		clk := simclock.NewVirtual()
		srv := New(clk, Config{Retention: time.Hour})
		srv.SetSpecBackend(tracedBackend(clk))
		if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		if admin == nil {
			admin, _ = srv.Users.Add("alice", RoleAdmin)
		}
		return srv, clk, st
	}
	type id struct{ build, campaign int }
	submit := func(srv *Server) (id, *Build) {
		t.Helper()
		cid, builds, err := srv.SubmitCampaign(admin, api.CampaignSpec{Experiments: []api.ExperimentSpec{testSpec("node1", "dev1")}})
		if err != nil {
			t.Fatal(err)
		}
		return id{builds[0].ID, cid}, builds[0]
	}
	ids := map[string]id{}

	srv, clk, st := boot()
	var b *Build
	ids["expired before a restart"], b = submit(srv)
	drainServer(t, clk, []*Build{b})
	clk.Advance(2 * time.Hour)
	st.Close()

	srv, clk, st = boot()
	defer st.Close()
	ids["expired in process"], b = submit(srv)
	drainServer(t, clk, []*Build{b})
	clk.Advance(2 * time.Hour)
	ids["settled"], b = submit(srv)
	drainServer(t, clk, []*Build{b})
	ids["running"], _ = submit(srv)
	ids["queued"], _ = submit(srv) // behind the running one's device
	for name, state := range map[string]BuildState{"settled": StateSuccess, "running": StateRunning, "queued": StateQueued} {
		if b, err := srv.Build(ids[name].build); err != nil || b.State() != state {
			t.Fatalf("%s build: %v, %v", name, b, err)
		}
	}
	for _, name := range []string{"expired in process", "expired before a restart"} {
		if _, err := srv.Build(ids[name].build); !errors.Is(err, ErrExpired) {
			t.Fatalf("%s build: %v, want ErrExpired", name, err)
		}
	}
	ids["never issued"] = id{99, 99}
	ids["0"] = id{0, 0}
	ids["-1"] = id{-1, -1}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	h := srv.Handler()
	answer := func(method, path string) string {
		req := httptest.NewRequest(method, path, nil).WithContext(ended)
		req.Header.Set("Authorization", "Bearer "+admin.Token)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			return "200"
		}
		var env api.Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			return fmt.Sprintf("%d without an envelope", rec.Code)
		}
		return fmt.Sprintf("%d %s", rec.Code, env.Error.Code)
	}

	// The answers, route by route in readRoutes order.
	want := map[string]string{
		"queued":                   "200 200 200 200 200 404 not_found 409 conflict",
		"running":                  "200 200 200 200 200 404 not_found 409 conflict",
		"settled":                  "200 200 200 200 200 200 200",
		"expired in process":       "200 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found",
		"expired before a restart": "200 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found",
		"never issued":             "404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found",
		"0":                        "404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found",
		"-1":                       "404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found 404 not_found",
	}
	for name, at := range ids {
		got := make([]string, len(readRoutes))
		for i, rt := range readRoutes {
			got[i] = answer("GET", rt.path(at.build, at.campaign))
		}
		if g := strings.Join(got, " "); g != want[name] {
			t.Errorf("%s (build %d): routes answer %q, want %q", name, at.build, g, want[name])
		}
	}

	// Cancel answers an expired build as it answers any finished one:
	// there is nothing left to cancel. Only an id never issued is not
	// found, so a cancel sent with a wrong id cannot pass for done.
	for name, want := range map[string]string{
		"settled":                  "409 conflict",
		"expired in process":       "409 conflict",
		"expired before a restart": "409 conflict",
		"never issued":             "404 not_found",
	} {
		if got := answer("POST", fmt.Sprintf("/api/v1/builds/%d/cancel", ids[name].build)); got != want {
			t.Errorf("%s (build %d): cancel answers %q, want %q", name, ids[name].build, got, want)
		}
	}
}
