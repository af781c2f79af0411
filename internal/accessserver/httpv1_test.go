package accessserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
	"batterylab/internal/trace"
)

// stubBackend compiles any spec into a pipeline that emits one phase
// event and one live sample, saves one artifact and succeeds — enough
// surface for route/RBAC tests without a full platform.
type stubBackend struct{}

func (stubBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	if spec.Workload.Name == "bad" {
		return Constraints{}, nil, fmt.Errorf("%w: bad workload", ErrInvalid)
	}
	if spec.Workload.Name == "missing" {
		return Constraints{}, nil, fmt.Errorf("%w: no workload %q", ErrNotFound, spec.Workload.Name)
	}
	cons := Constraints{Node: spec.Node, Device: spec.Device}
	run := func(ctx *BuildContext, done func(error)) {
		ctx.Build.Feed().PostEvent(api.BuildEvent{Build: ctx.Build.ID, Phase: "workload"})
		ctx.Build.Feed().PostSample(api.SamplePoint{AtNS: 42, CurrentMA: 120.5, N: 1, MeanMA: 120.5})
		ctx.Build.Workspace().Save("hello.txt", []byte("hi"))
		ctx.Build.Workspace().Save("current.trace", stubTraceBytes())
		ctx.Build.SetSummary(api.RunSummary{Samples: 1, MeanMA: 120.5})
		done(nil)
	}
	return cons, run, nil
}

// stubTraceBytes is a small deterministic binary power trace the
// analytics route can aggregate: 1 kHz cadence, a step from 100 mA to
// 200 mA halfway through 4 s.
func stubTraceBytes() []byte {
	tr := trace.NewSeries("current", "mA")
	t0 := time.Unix(1_700_000_000, 0)
	for i := 0; i < 4000; i++ {
		v := 100.0
		if i >= 2000 {
			v = 200.0
		}
		tr.MustAppend(t0.Add(time.Duration(i)*time.Millisecond), v)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (stubBackend) WorkloadNames() []string { return []string{"stub"} }

// v1rig extends the package rig with the stub backend, an HTTP server,
// one finished spec build + campaign and one approved job ("seeded",
// the admin's).
type v1rig struct {
	*rig
	ts        *httptest.Server
	doneBuild int
	campaign  int
}

func newV1Rig(t *testing.T) *v1rig {
	t.Helper()
	r := newRig(t)
	r.srv.SetSpecBackend(stubBackend{})
	v := &v1rig{rig: r, ts: httptest.NewServer(r.srv.Handler())}
	t.Cleanup(v.ts.Close)

	b, err := r.srv.SubmitSpec(r.admin, v.spec("node1"))
	if err != nil {
		t.Fatal(err)
	}
	v.doneBuild = b.ID
	if b.State() != StateSuccess {
		t.Fatalf("seed build state = %s", b.State())
	}
	id, _, err := r.srv.SubmitCampaign(r.admin, api.CampaignSpec{
		Experiments: []api.ExperimentSpec{v.spec("node1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	v.campaign = id
	if _, err := r.srv.CreateJob(r.admin, "seeded", v.spec("node1")); err != nil {
		t.Fatal(err)
	}
	return v
}

func (v *v1rig) spec(node string) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: "dev1",
		Workload: api.WorkloadSpec{Name: "stub"},
	}
}

// queueBuild submits a spec (as owner) targeting an unregistered node,
// which stays queued until aborted.
func (v *v1rig) queueBuild(t *testing.T, owner *User) int {
	t.Helper()
	b, err := v.srv.SubmitSpec(owner, v.spec("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateQueued {
		t.Fatalf("ghost build state = %s", b.State())
	}
	return b.ID
}

func (v *v1rig) request(t *testing.T, method, path, token string, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, v.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestV1RBACMatrix drives every v1 route with every role (plus an
// unauthenticated caller) and checks the expected status: 401 without
// a token, 403 for roles lacking the permission, 2xx for allowed
// roles (admin-only routes answer the experimenter 403 too). A fresh
// rig per role keeps the mutating routes independent.
func TestV1RBACMatrix(t *testing.T) {
	specBody := `{"node":"node1","device":"dev1","workload":{"name":"stub"}}`
	campaignBody := `{"experiments":[` + specBody + `]}`

	type route struct {
		method string
		path   func(v *v1rig, cancelTarget int) string
		body   string
		allow  int // status for roles holding the permission
		// adminOnly routes need a permission experimenters lack.
		adminOnly bool
	}
	at := func(path string) func(*v1rig, int) string {
		return func(*v1rig, int) string { return path }
	}
	routes := []route{
		{"GET", func(v *v1rig, _ int) string { return "/api/v1/nodes" }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return "/api/v1/workloads" }, "", 200, false},
		{"POST", func(v *v1rig, _ int) string { return "/api/v1/experiments" }, specBody, 202, false},
		{"POST", func(v *v1rig, _ int) string { return "/api/v1/campaigns" }, campaignBody, 202, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/campaigns/%d", v.campaign) }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/builds/%d", v.doneBuild) }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/events", v.doneBuild) }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/samples", v.doneBuild) }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/analytics", v.doneBuild) }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/artifacts", v.doneBuild) }, "", 200, false},
		{"GET", func(v *v1rig, _ int) string { return fmt.Sprintf("/api/v1/builds/%d/artifacts/hello.txt", v.doneBuild) }, "", 200, false},
		{"POST", func(v *v1rig, target int) string { return fmt.Sprintf("/api/v1/builds/%d/cancel", target) }, "", 202, false},
		// The job routes, in workflow order: each role creates its own
		// job, so its DELETE passes the owner check.
		{"GET", at("/api/v1/jobs"), "", 200, false},
		{"PUT", at("/api/v1/jobs/fresh"), specBody, 200, false},
		{"POST", at("/api/v1/jobs/seeded/approve"), "", 200, true},
		{"POST", at("/api/v1/jobs/seeded/builds"), "", 202, false},
		{"DELETE", at("/api/v1/jobs/fresh"), "", 200, false},
	}
	roles := []struct {
		name    string
		user    func(v *v1rig) *User // nil = anonymous
		status  func(allow int) int  // expected per allowed-status
		allowed bool
	}{
		{"anonymous", func(v *v1rig) *User { return nil }, func(int) int { return 401 }, false},
		{"tester", func(v *v1rig) *User { return v.tst }, func(int) int { return 403 }, false},
		{"experimenter", func(v *v1rig) *User { return v.exp }, func(a int) int { return a }, true},
		{"admin", func(v *v1rig) *User { return v.admin }, func(a int) int { return a }, true},
	}
	for _, role := range roles {
		v := newV1Rig(t)
		for _, rt := range routes {
			cancelTarget := v.doneBuild
			if strings.HasSuffix(rt.path(v, 0), "/cancel") && role.allowed {
				// Allowed roles need a live target they own; 202 proves
				// the permission, ownership and abort path together.
				cancelTarget = v.queueBuild(t, role.user(v))
			}
			token := ""
			if u := role.user(v); u != nil {
				token = u.Token
			}
			resp := v.request(t, rt.method, rt.path(v, cancelTarget), token, rt.body)
			want := role.status(rt.allow)
			if rt.adminOnly && role.name == "experimenter" {
				want = 403
			}
			if resp.StatusCode != want {
				t.Errorf("%s %s %s: status %d, want %d",
					role.name, rt.method, rt.path(v, cancelTarget), resp.StatusCode, want)
			}
			if resp.StatusCode >= 400 {
				// Every error is the typed envelope.
				var env api.Envelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
					t.Errorf("%s %s: error body is not an envelope (%v)", role.name, rt.method, err)
				} else if env.Error.HTTPStatus() != resp.StatusCode {
					t.Errorf("%s %s: code %s does not match status %d",
						role.name, rt.method, env.Error.Code, resp.StatusCode)
				}
			}
			resp.Body.Close()
		}
	}
}

// TestV1ErrorCodes pins the status for each failure class — the
// conflation bug (everything 409) must not come back.
func TestV1ErrorCodes(t *testing.T) {
	v := newV1Rig(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"unknown build", "GET", "/api/v1/builds/999", "", 404},
		{"malformed build id", "GET", "/api/v1/builds/xyz", "", 400},
		{"unknown campaign", "GET", "/api/v1/campaigns/999", "", 404},
		{"unknown artifact", "GET", fmt.Sprintf("/api/v1/builds/%d/artifacts/nope", v.doneBuild), "", 404},
		{"malformed spec JSON", "POST", "/api/v1/experiments", "{", 400},
		{"invalid spec", "POST", "/api/v1/experiments", `{"node":"node1","device":"d","workload":{"name":"bad"}}`, 400},
		{"unknown workload", "POST", "/api/v1/experiments", `{"node":"node1","device":"d","workload":{"name":"missing"}}`, 404},
		{"empty campaign", "POST", "/api/v1/campaigns", `{"experiments":[]}`, 400},
		{"cancel finished build", "POST", fmt.Sprintf("/api/v1/builds/%d/cancel", v.doneBuild), "", 409},
		{"bad sample format", "GET", fmt.Sprintf("/api/v1/builds/%d/samples?format=xml", v.doneBuild), "", 400},
		{"bad events cursor", "GET", fmt.Sprintf("/api/v1/builds/%d/events?from=-2", v.doneBuild), "", 400},
		{"analytics bad window", "GET", fmt.Sprintf("/api/v1/builds/%d/analytics?window=banana", v.doneBuild), "", 400},
		{"analytics negative window", "GET", fmt.Sprintf("/api/v1/builds/%d/analytics?window=-2s", v.doneBuild), "", 400},
		{"analytics unknown field", "GET", fmt.Sprintf("/api/v1/builds/%d/analytics?fields=bogus", v.doneBuild), "", 400},
		{"analytics too many buckets", "GET", fmt.Sprintf("/api/v1/builds/%d/analytics?window=1ns", v.doneBuild), "", 400},
		{"analytics unfinished build", "GET", fmt.Sprintf("/api/v1/builds/%d/analytics", v.queueBuild(t, v.admin)), "", 409},
		{"analytics missing artifact", "GET", fmt.Sprintf("/api/v1/builds/%d/analytics?artifact=nope", v.doneBuild), "", 404},
		{"approve unknown job", "POST", "/api/v1/jobs/nope/approve", "", 404},
		{"build unknown job", "POST", "/api/v1/jobs/nope/builds", "", 404},
		{"delete unknown job", "DELETE", "/api/v1/jobs/nope", "", 404},
		{"build unapproved job", "POST", "/api/v1/jobs/draft/builds", "", 409},
		{"malformed job JSON", "PUT", "/api/v1/jobs/j", "{", 400},
		{"invalid job spec", "PUT", "/api/v1/jobs/j", `{"node":"node1","device":"d","workload":{"name":"bad"}}`, 400},
		{"job with unknown workload", "PUT", "/api/v1/jobs/j", `{"node":"node1","device":"d","workload":{"name":"missing"}}`, 404},
		{"reserved job name", "PUT", "/api/v1/jobs/spec:j", `{"node":"node1","device":"d","workload":{"name":"stub"}}`, 400},
	}
	// The experimenter's job no admin has approved.
	if _, err := v.srv.CreateJob(v.exp, "draft", v.spec("node1")); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		resp := v.request(t, c.method, c.path, v.admin.Token, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}
}

// TestV1CampaignAtomicity: one bad spec in a campaign queues nothing.
func TestV1CampaignAtomicity(t *testing.T) {
	v := newV1Rig(t)
	before := v.srv.QueueLength()
	body := `{"experiments":[
		{"node":"node1","device":"d","workload":{"name":"stub"}},
		{"node":"node1","device":"d","workload":{"name":"bad"}}]}`
	resp := v.request(t, "POST", "/api/v1/campaigns", v.admin.Token, body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := v.srv.QueueLength(); got != before {
		t.Fatalf("queue grew by %d despite the failed campaign", got-before)
	}
}

// TestV1MethodEnforcement: read routes reject writes and vice versa.
func TestV1MethodEnforcement(t *testing.T) {
	v := newV1Rig(t)
	cases := []struct {
		method string
		path   string
	}{
		{"POST", "/api/v1/jobs"},
		{"GET", "/api/v1/jobs/seeded"},
		{"GET", "/api/v1/jobs/seeded/builds"},
		{"GET", "/api/v1/jobs/seeded/approve"},
		{"POST", "/api/v1/nodes"},
		{"GET", "/api/v1/experiments"},
		{"DELETE", fmt.Sprintf("/api/v1/builds/%d", v.doneBuild)},
	}
	for _, c := range cases {
		resp := v.request(t, c.method, c.path, v.admin.Token, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestV1JobsWorkflow walks the paper's §3.1 workflow as a remote
// experimenter sees it: store a job, wait for an admin's approval, run
// it, edit it (which needs approval again), delete it.
func TestV1JobsWorkflow(t *testing.T) {
	v := newV1Rig(t)
	specBody := `{"node":"node1","device":"dev1","workload":{"name":"stub"}}`
	call := func(user *User, method, path, body string, want int, into any) {
		t.Helper()
		resp := v.request(t, method, path, user.Token, body)
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s %s: status %d, want %d", user.Name, method, path, resp.StatusCode, want)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
		}
	}
	carol, _ := v.srv.Users.Add("carol", RoleExperimenter)

	var job api.JobInfo
	call(v.exp, "PUT", "/api/v1/jobs/study", specBody, 200, &job)
	if job.Name != "study" || job.Owner != "bob" || job.Approved || job.Revision != 1 || job.Spec.Workload.Name != "stub" {
		t.Fatalf("created job = %+v", job)
	}
	call(v.exp, "POST", "/api/v1/jobs/study/builds", "", 409, nil) // not approved yet
	call(v.exp, "POST", "/api/v1/jobs/study/approve", "", 403, nil)
	call(v.admin, "POST", "/api/v1/jobs/study/approve", "", 200, nil)

	var sub api.SubmitResponse
	call(v.exp, "POST", "/api/v1/jobs/study/builds", "", 202, &sub)
	var st api.BuildStatus
	call(v.exp, "GET", fmt.Sprintf("/api/v1/builds/%d", sub.Build), "", 200, &st)
	if st.Job != "study" || st.State != "success" {
		t.Fatalf("job build status = %+v", st)
	}

	// Another experimenter may run the approved job but not change it.
	call(carol, "POST", "/api/v1/jobs/study/builds", "", 202, nil)
	call(carol, "PUT", "/api/v1/jobs/study", specBody, 403, nil)
	call(carol, "DELETE", "/api/v1/jobs/study", "", 403, nil)

	// The owner's edit is revision 2 and waits for approval again.
	edited := `{"node":"node1","device":"dev2","workload":{"name":"stub"}}`
	call(v.exp, "PUT", "/api/v1/jobs/study", edited, 200, &job)
	if job.Approved || job.Revision != 2 || job.Spec.Device != "dev2" {
		t.Fatalf("edited job = %+v", job)
	}
	call(v.exp, "POST", "/api/v1/jobs/study/builds", "", 409, nil)

	var jobs []api.JobInfo
	call(v.exp, "GET", "/api/v1/jobs", "", 200, &jobs)
	if len(jobs) != 2 || jobs[0].Name != "seeded" || jobs[1].Name != "study" || jobs[1].Revision != 2 {
		t.Fatalf("job list = %+v", jobs)
	}
	call(v.exp, "DELETE", "/api/v1/jobs/study", "", 200, nil)
	call(v.exp, "POST", "/api/v1/jobs/study/builds", "", 404, nil)
}

// TestV1SampleStreamFormats checks both wire encodings of the sample
// stream against the same finished build.
func TestV1SampleStreamFormats(t *testing.T) {
	v := newV1Rig(t)

	// Binary (default): length-prefixed trace frames.
	resp := v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d/samples", v.doneBuild), v.admin.Token, "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary content type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	pts, err := api.ReadSampleFrame(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].AtNS != 42 || pts[0].CurrentMA != 120.5 {
		t.Fatalf("binary points = %+v", pts)
	}

	// NDJSON fallback carries the live summary fields.
	resp = v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d/samples?format=ndjson", v.doneBuild), v.admin.Token, "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type = %q", ct)
	}
	var pt api.SamplePoint
	if err := json.NewDecoder(resp.Body).Decode(&pt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pt.CurrentMA != 120.5 || pt.MeanMA != 120.5 || pt.N != 1 {
		t.Fatalf("ndjson point = %+v", pt)
	}
}

// TestV1EventCursor: ?from= resumes the event stream mid-way.
func TestV1EventCursor(t *testing.T) {
	r := newRig(t)
	r.srv.SetSpecBackend(eventBurstBackend{n: 3})
	ts := httptest.NewServer(r.srv.Handler())
	defer ts.Close()
	b, err := r.srv.SubmitSpec(r.admin, api.ExperimentSpec{
		Node: "node1", Device: "d", Workload: api.WorkloadSpec{Name: "burst"},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", fmt.Sprintf("%s/api/v1/builds/%d/events?from=1", ts.URL, b.ID), nil)
	req.Header.Set("Authorization", "Bearer "+r.admin.Token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var seqs []int
	dec := json.NewDecoder(resp.Body)
	for {
		var ev api.BuildEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("resumed seqs = %v, want [1 2]", seqs)
	}
}

// eventBurstBackend emits n events then succeeds.
type eventBurstBackend struct{ n int }

func (b eventBurstBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	return Constraints{Node: spec.Node}, func(ctx *BuildContext, done func(error)) {
		for i := 0; i < b.n; i++ {
			ctx.Build.Feed().PostEvent(api.BuildEvent{Build: ctx.Build.ID, Phase: fmt.Sprintf("p%d", i)})
		}
		done(nil)
	}, nil
}

func (eventBurstBackend) WorkloadNames() []string { return []string{"burst"} }

// TestSlowSampleConsumerCannotStallCapture is the PR 2 bounded-queue
// guarantee extended across the wire: a /samples consumer that opens
// the stream and never reads must not block the pipeline posting
// samples. The pipeline emits far more than the socket and feed can
// buffer while the consumer stalls; if any append blocked, the
// synchronous RunFunc — the capture loop's stand-in — would never
// finish and the test would time out. The feed sheds (and counts) the
// overflow instead.
func TestSlowSampleConsumerCannotStallCapture(t *testing.T) {
	r := newRig(t)
	const total = 3 * feedhub.SampleCap
	posted := make(chan struct{})
	r.srv.SetSpecBackend(floodBackend{n: total, done: posted})
	ts := httptest.NewServer(r.srv.Handler())
	defer ts.Close()

	start := time.Now()
	b, err := r.srv.SubmitSpec(r.admin, api.ExperimentSpec{
		Node: "node1", Device: "d", Workload: api.WorkloadSpec{Name: "flood"},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-posted:
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline blocked posting samples — capture loop stalled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("posting %d samples took %v", total, elapsed)
	}
	if b.State() != StateSuccess {
		t.Fatalf("state = %s", b.State())
	}
	_, droppedSamples := b.Feed().Dropped()
	if want := int64(total - feedhub.SampleCap); droppedSamples != want {
		t.Fatalf("dropped %d samples, want %d", droppedSamples, want)
	}

	// A never-reading consumer on the bounded replay: the handler (not
	// the capture path) blocks on the socket; the server stays
	// responsive to everyone else.
	req, _ := http.NewRequest("GET", fmt.Sprintf("%s/api/v1/builds/%d/samples", ts.URL, b.ID), nil)
	req.Header.Set("Authorization", "Bearer "+r.admin.Token)
	resp, err := http.DefaultClient.Do(req) // Do returns after headers; body unread
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	resp2 := func() *http.Response {
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/api/v1/builds/%d", ts.URL, b.ID), nil)
		req.Header.Set("Authorization", "Bearer "+r.admin.Token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}()
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("server unresponsive while consumer stalls: %d", resp2.StatusCode)
	}
}

// floodBackend posts n samples as fast as the feed accepts them.
type floodBackend struct {
	n    int
	done chan struct{}
}

func (b floodBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	return Constraints{Node: spec.Node}, func(ctx *BuildContext, done func(error)) {
		for i := 0; i < b.n; i++ {
			ctx.Build.Feed().PostSample(api.SamplePoint{AtNS: int64(i), CurrentMA: float64(i)})
		}
		close(b.done)
		done(nil)
	}, nil
}

func (floodBackend) WorkloadNames() []string { return []string{"flood"} }

// TestV1CancelOwnership: an experimenter may only cancel their own
// builds; admins may cancel anyone's. The canceled flag lands on the
// wire status.
func TestV1CancelOwnership(t *testing.T) {
	v := newV1Rig(t)
	other, _ := v.srv.Users.Add("mallory", RoleExperimenter)

	mine := v.queueBuild(t, v.admin) // owned by admin
	resp := v.request(t, "POST", fmt.Sprintf("/api/v1/builds/%d/cancel", mine), other.Token, "")
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("cross-tenant cancel: status %d, want 403", resp.StatusCode)
	}
	// The admin (owner here, and admin besides) cancels fine.
	resp = v.request(t, "POST", fmt.Sprintf("/api/v1/builds/%d/cancel", mine), v.admin.Token, "")
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("owner cancel: status %d, want 202", resp.StatusCode)
	}

	// An admin may cancel another user's build.
	b, err := v.srv.SubmitSpec(v.exp, v.spec("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	resp = v.request(t, "POST", fmt.Sprintf("/api/v1/builds/%d/cancel", b.ID), v.admin.Token, "")
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("admin cancel of other's build: status %d, want 202", resp.StatusCode)
	}

	// The wire status carries ownership and the structured canceled flag.
	resp = v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d", b.ID), v.exp.Token, "")
	var st api.BuildStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Owner != "bob" || st.State != "aborted" || !st.Canceled {
		t.Fatalf("status = %+v", st)
	}
}

// TestV1BuildStatusSummary: the run summary lands on the wire status.
func TestV1BuildStatusSummary(t *testing.T) {
	v := newV1Rig(t)
	resp := v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d", v.doneBuild), v.admin.Token, "")
	defer resp.Body.Close()
	var st api.BuildStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "success" || st.Summary == nil || st.Summary.MeanMA != 120.5 {
		t.Fatalf("status = %+v", st)
	}
	if st.Job != "spec:stub@node1" {
		t.Fatalf("job label = %q", st.Job)
	}
}
