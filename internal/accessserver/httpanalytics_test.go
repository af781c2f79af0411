package accessserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"batterylab/internal/analytics"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
	"batterylab/internal/trace"
)

// readAll drains and closes a response body.
func readBody(t *testing.T, resp interface {
	Close() error
	Read([]byte) (int, error)
}) []byte {
	t.Helper()
	data, err := io.ReadAll(resp)
	resp.Close()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV1Analytics drives the analytics route end to end: the response
// must equal a direct analytics.ComputeBinary over the same stored trace,
// the repeat query must be a bit-identical cache hit, and a different
// query must miss.
func TestV1Analytics(t *testing.T) {
	v := newV1Rig(t)
	url := fmt.Sprintf("/api/v1/builds/%d/analytics?window=1s&fields=mean,energy", v.doneBuild)

	resp := v.request(t, "GET", url, v.admin.Token, "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", got)
	}
	cold := readBody(t, resp.Body)

	// Ground truth: the same engine over the same bytes.
	want, err := analytics.ComputeBinary(stubTraceBytes(), api.AnalyticsQuery{
		WindowNS: 1_000_000_000, Fields: []string{"energy", "mean"}, Artifact: "current.trace",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want.BuildID = v.doneBuild
	wantJSON, _ := json.Marshal(want)
	wantJSON = append(wantJSON, '\n')
	if !bytes.Equal(cold, wantJSON) {
		t.Fatalf("response does not match direct ComputeBinary:\n got %s\nwant %s", cold, wantJSON)
	}

	var res api.AnalyticsResult
	if err := json.Unmarshal(cold, &res); err != nil {
		t.Fatal(err)
	}
	if res.Total.Samples != 4000 || res.Total.MeanMA == nil || math.Abs(*res.Total.MeanMA-150) > 1e-9 {
		t.Fatalf("rollup %+v, want 4000 samples mean 150", res.Total)
	}
	if res.Total.MinMA != nil || res.Total.P50MA != nil {
		t.Fatalf("unrequested fields present: %+v", res.Total)
	}
	if len(res.Buckets) != 4 {
		t.Fatalf("%d buckets, want 4", len(res.Buckets))
	}
	// The step function: first buckets flat at 100 mA, last at 200 mA.
	if *res.Buckets[0].MeanMA != 100 || *res.Buckets[3].MeanMA != 200 {
		t.Fatalf("bucket means %v / %v, want 100 / 200", *res.Buckets[0].MeanMA, *res.Buckets[3].MeanMA)
	}

	// Repeat: bit-identical from the cache.
	resp = v.request(t, "GET", url, v.admin.Token, "")
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat query X-Cache = %q, want hit", got)
	}
	warm := readBody(t, resp.Body)
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache hit body differs from the cold query")
	}

	// A different query is a different key.
	resp = v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d/analytics?window=2s", v.doneBuild), v.admin.Token, "")
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("different query X-Cache = %q, want miss", got)
	}
	readBody(t, resp.Body)

	snap := v.srv.MetricsSnapshot()
	if mv, ok := snap.Get("blab_analytics_cache_hits_total"); !ok || mv.Value != 1 {
		t.Fatalf("cache hits metric = %+v, want 1", mv)
	}
	if mv, ok := snap.Get("blab_analytics_cache_misses_total"); !ok || mv.Value != 2 {
		t.Fatalf("cache misses metric = %+v, want 2", mv)
	}
}

// TestV1AnalyticsDefaults pins the zero-parameter query: every field,
// no buckets (no window), default artifact.
func TestV1AnalyticsDefaults(t *testing.T) {
	v := newV1Rig(t)
	resp := v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d/analytics", v.doneBuild), v.admin.Token, "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res api.AnalyticsResult
	if err := json.Unmarshal(readBody(t, resp.Body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Artifact != "current.trace" || res.WindowNS != 0 || res.Buckets != nil {
		t.Fatalf("defaults: %+v", res)
	}
	if res.Total.MeanMA == nil || res.Total.MinMA == nil || res.Total.P50MA == nil || res.Total.EnergyMAH == nil {
		t.Fatalf("full field set missing aggregates: %+v", res.Total)
	}
	// 100 mA for 2 s then 200 mA for 2 s ≈ 600 mA·s / 3600 ≈ 0.1667 mAh
	// (trapezoid over the step; exact value pinned by the engine test).
	if e := *res.Total.EnergyMAH; e < 0.15 || e > 0.18 {
		t.Fatalf("energy %v mAh outside the plausible envelope", e)
	}
}

// TestAnalyticsStoredTotal: a miss on a build this server measured takes
// its Total row from the summary the build stored, and folds the bytes
// only for the windows. The stored summary here is deliberately not the
// bytes' (a mean of 999 mA over a trace whose mean is 150), so where the
// Total comes from shows. A relayed build, a summary without the Rollup
// mark (as written before it existed, or by hand), a summary without the
// ExactQuantiles mark (stored with P² estimates) and an artifact other
// than the power trace each fold the bytes instead.
func TestAnalyticsStoredTotal(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 2})
	stored := api.RunSummary{
		Samples: 4000, MeanMA: 999, P50MA: 998, P95MA: 997, EnergyMAH: 0.5,
		MinMA: -1, MaxMA: 1000, NaNs: 3, DurationNS: 4_000_000_000, Rollup: true, ExactQuantiles: true,
	}
	premark := stored
	premark.Rollup = false
	p2 := stored
	p2.ExactQuantiles = false
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		return Constraints{Node: spec.Node, Device: spec.Device}, func(ctx *BuildContext, done func(error)) {
			ws := ctx.Build.Workspace()
			ws.Save(defaultTraceArtifact, stubTraceBytes())
			ws.Save("device-cpu.trace", stubTraceBytes())
			switch spec.Workload.Name {
			case "premark":
				ctx.Build.SetSummary(premark)
			case "p2":
				ctx.Build.SetSummary(p2)
			default:
				ctx.Build.SetSummary(stored)
			}
			done(nil)
		}, nil
	}))
	srv.SetPeerRelay(func(_ context.Context, _, _ string, _ api.ExperimentSpec, sink api.RelaySink) (*api.BuildStatus, error) {
		sink.Artifact(defaultTraceArtifact, stubTraceBytes())
		return &api.BuildStatus{ID: 7, State: StateSuccess.String(), Summary: &stored}, nil
	})
	if err := srv.RegisterNode(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	srv.Cluster().Announce(api.PeerAnnounce{Name: "west", URL: "http://west.example", Nodes: []api.PeerNode{
		{Name: "node9", Health: api.HealthOnline, Devices: []string{"dev9"}},
	}}, clk.Now())
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	submit := func(node, device, workload string) *Build {
		t.Helper()
		b, err := srv.SubmitSpec(admin, api.ExperimentSpec{Node: node, Device: device, Workload: api.WorkloadSpec{Name: workload}})
		if err != nil {
			t.Fatal(err)
		}
		waitFeed(t, b, func(_ []api.BuildEvent, closed bool) bool { return closed })
		if b.State() != StateSuccess {
			t.Fatalf("build %d: %s (%v)", b.ID, b.State(), b.Err())
		}
		return b
	}
	measured := submit("node1", "dev1", "measure")
	old := submit("node1", "dev2", "premark")
	estimated := submit("node1", "dev3", "p2")
	routed := submit("node9", "dev9", "measure")
	if via := statusOf(t, srv, routed).RoutedVia; via != "west" {
		t.Fatalf("routed build ran via %q, want west", via)
	}

	for _, c := range []struct {
		name     string
		b        *Build
		artifact string
		total    *api.RunSummary // nil: the Total is the bytes' fold
	}{
		{"measured here", measured, "", &stored},
		{"non-default artifact", measured, "device-cpu.trace", nil},
		{"summary without the mark", old, "", nil},
		{"summary with P² quantiles", estimated, "", nil},
		{"relayed", routed, "", nil},
	} {
		for _, window := range []string{"", "1s"} {
			url := fmt.Sprintf("%s/api/v1/builds/%d/analytics?window=%s&artifact=%s", ts.URL, c.b.ID, window, c.artifact)
			req, _ := http.NewRequest("GET", url, nil)
			req.Header.Set("Authorization", "Bearer "+admin.Token)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%s window %q: status %d: %s", c.name, window, resp.StatusCode, readBody(t, resp.Body))
			}
			got := readBody(t, resp.Body)

			q := api.AnalyticsQuery{Artifact: c.artifact, Fields: []string{"energy", "mean", "minmax", "quantiles"}}
			if q.Artifact == "" {
				q.Artifact = defaultTraceArtifact
			}
			if window != "" {
				q.WindowNS = int64(time.Second)
			}
			want, err := analytics.ComputeBinary(stubTraceBytes(), q, c.total)
			if err != nil {
				t.Fatal(err)
			}
			want.BuildID = c.b.ID
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(got, append(wantJSON, '\n')) {
				t.Errorf("%s window %q:\n got %s\nwant %s", c.name, window, got, wantJSON)
			}
			var res api.AnalyticsResult
			if err := json.Unmarshal(got, &res); err != nil {
				t.Fatal(err)
			}
			wantMean, wantSamples := 150.0, int64(4000)
			if c.total != nil {
				wantMean, wantSamples = stored.MeanMA, stored.Samples-stored.NaNs
			}
			if res.Total.MeanMA == nil || math.Abs(*res.Total.MeanMA-wantMean) > 1e-9 || res.Total.Samples != wantSamples {
				t.Errorf("%s window %q: Total %+v, want mean %v over %d samples", c.name, window, res.Total, wantMean, wantSamples)
			}
			if window != "" && (len(res.Buckets) != 4 || *res.Buckets[0].MeanMA != 100 || *res.Buckets[3].MeanMA != 200) {
				t.Errorf("%s window %q: buckets %+v, want the bytes' four", c.name, window, res.Buckets)
			}
		}
	}
}

// TestAnalyticsOmitsNonFinite: a trace whose energy overflows float64 (two
// samples at MaxFloat64 a second apart) is answered, not refused: the miss
// and the cache hit after it are both 200, with the energy absent and the
// finite aggregates present.
func TestAnalyticsOmitsNonFinite(t *testing.T) {
	tr := trace.NewSeries("current", "mA")
	for i, v := range []float64{math.Copysign(0, -1), math.MaxFloat64, math.MaxFloat64} {
		tr.MustAppend(time.Unix(int64(i), 0), v)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if e := tr.EnergyMAH(); !math.IsInf(e, 1) {
		t.Fatalf("the trace's energy is %v, want +Inf", e)
	}
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 2})
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		return Constraints{Node: spec.Node, Device: spec.Device}, func(ctx *BuildContext, done func(error)) {
			ctx.Build.Workspace().Save(defaultTraceArtifact, buf.Bytes())
			done(nil)
		}, nil
	}))
	if err := srv.RegisterNode(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	b, err := srv.SubmitSpec(admin, api.ExperimentSpec{Node: "node1", Device: "dev1", Workload: api.WorkloadSpec{Name: "overflow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFeed(t, b, func(_ []api.BuildEvent, closed bool) bool { return closed })
	if b.State() != StateSuccess {
		t.Fatalf("build %d: %s (%v)", b.ID, b.State(), b.Err())
	}
	for _, cache := range []string{"miss", "hit"} {
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/api/v1/builds/%d/analytics", ts.URL, b.ID), nil)
		req.Header.Set("Authorization", "Bearer "+admin.Token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp.Body)
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != cache {
			t.Fatalf("%s: status %d, X-Cache %q: %s", cache, resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
		var res api.AnalyticsResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Total.EnergyMAH != nil || bytes.Contains(body, []byte("energy_mah")) {
			t.Errorf("%s: energy present in %s", cache, body)
		}
		if res.Total.MaxMA == nil || *res.Total.MaxMA != math.MaxFloat64 || res.Total.Samples != 3 {
			t.Errorf("%s: Total %+v, want its 3 samples and MaxFloat64 maximum", cache, res.Total)
		}
	}
}
