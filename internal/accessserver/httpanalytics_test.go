package accessserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"batterylab/internal/analytics"
	"batterylab/internal/api"
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
	})
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
