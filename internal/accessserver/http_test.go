package accessserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"batterylab/internal/api"
)

func httpRig(t *testing.T) (*rig, *httptest.Server) {
	t.Helper()
	r := newRig(t)
	srv := httptest.NewServer(r.srv.Handler())
	t.Cleanup(srv.Close)
	return r, srv
}

func get(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func post(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// put sends an experiment spec as a job's body.
func put(t *testing.T, url, token string, spec api.ExperimentSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPAuthRequired(t *testing.T) {
	_, srv := httpRig(t)
	resp := get(t, srv.URL+"/api/v1/nodes", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp = get(t, srv.URL+"/api/v1/nodes", "wrong-token")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPRoleGating(t *testing.T) {
	r, srv := httpRig(t)
	// Tester lacks PermViewConsole.
	resp := get(t, srv.URL+"/api/v1/nodes", r.tst.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tester console access: %d", resp.StatusCode)
	}
}

func TestHTTPNodesAndDevices(t *testing.T) {
	r, srv := httpRig(t)
	resp := get(t, srv.URL+"/api/v1/nodes", r.exp.Token)
	defer resp.Body.Close()
	var nodes []api.NodeInfo
	json.NewDecoder(resp.Body).Decode(&nodes)
	if len(nodes) != 1 || nodes[0].Name != "node1" || len(nodes[0].Devices) != 1 {
		t.Fatalf("nodes = %+v", nodes)
	}
}

// TestHTTPBuildFlow: the §3.1 workflow end to end over the wire — store
// a job, queue a build of it, read the build's status and artifacts.
func TestHTTPBuildFlow(t *testing.T) {
	r, srv := httpRig(t)
	r.tb.handle("demo", func(ctx *BuildContext, done func(error)) {
		ctx.Build.Workspace().Save("out.csv", []byte("1,2"))
		ctx.Logf("hello from demo")
		done(nil)
	})
	resp0 := put(t, srv.URL+"/api/v1/jobs/demo", r.admin.Token, jobSpec("demo", Constraints{Node: "node1"}))
	defer resp0.Body.Close()
	var job api.JobInfo
	json.NewDecoder(resp0.Body).Decode(&job)
	if resp0.StatusCode != http.StatusOK || job.Name != "demo" || !job.Approved || job.Revision != 1 || job.Spec.Workload.Name != "demo" {
		t.Fatalf("job put: %d, %+v", resp0.StatusCode, job)
	}

	resp := post(t, srv.URL+"/api/v1/jobs/demo/builds", r.exp.Token)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build trigger: %d", resp.StatusCode)
	}
	var out api.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if out.Build == 0 {
		t.Fatalf("build id = %d", out.Build)
	}

	resp2 := get(t, srv.URL+"/api/v1/builds/1", r.exp.Token)
	defer resp2.Body.Close()
	var st api.BuildStatus
	json.NewDecoder(resp2.Body).Decode(&st)
	if st.State != "success" || st.Job != "demo" {
		t.Fatalf("status = %+v", st)
	}
	if b, _ := r.srv.Build(1); !contains(b.Log(), "hello from demo") {
		t.Fatalf("log = %q", b.Log())
	}

	resp4 := get(t, srv.URL+"/api/v1/builds/1/artifacts", r.exp.Token)
	defer resp4.Body.Close()
	var arts []string
	json.NewDecoder(resp4.Body).Decode(&arts)
	if len(arts) != 1 || arts[0] != "out.csv" {
		t.Fatalf("artifacts = %v", arts)
	}
}

func TestHTTPApproveFlow(t *testing.T) {
	r, srv := httpRig(t)
	r.tb.handle("needs", noopJob)
	resp := put(t, srv.URL+"/api/v1/jobs/needs", r.exp.Token, jobSpec("needs", Constraints{Node: "node1"}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experimenter create: %d", resp.StatusCode)
	}
	// Not before an admin has seen it.
	resp = post(t, srv.URL+"/api/v1/jobs/needs/builds", r.exp.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("build before approval: %d", resp.StatusCode)
	}
	// Experimenter cannot approve over HTTP either.
	resp = post(t, srv.URL+"/api/v1/jobs/needs/approve", r.exp.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("experimenter approve: %d", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/api/v1/jobs/needs/approve", r.admin.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin approve: %d", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/api/v1/jobs/needs/builds", r.exp.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build after approval: %d", resp.StatusCode)
	}
}

func TestHTTPBadBuildID(t *testing.T) {
	r, srv := httpRig(t)
	resp := get(t, srv.URL+"/api/v1/builds/abc", r.exp.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp = get(t, srv.URL+"/api/v1/builds/999", r.exp.Token)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
