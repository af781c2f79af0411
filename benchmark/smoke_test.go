package main

import (
	"io"
	"reflect"
	"testing"
)

// smokeSizes is every workload at about a fiftieth of the frozen sizes.
var smokeSizes = sizes{
	BacklogNodes: 10, BacklogCampaigns: 6, CampaignSize: 15, AbortPct: 5,
	DashNodes: 4, DashCampaigns: 3, DashSamples: 40, DashEvents: 8, DashReads: 600,
	MeasureExperiments: 1, MeasurePages: 1, MeasureScrolls: 1, MeasureRateHz: 1000, AnalyticsWindowMS: 2000,
	RestartNodes: 10, RestartCampaigns: 4, RestartRecovers: 2,
	ProbeSamples: 8192,
}

// Every workload must pass all of its output checks, untraced and
// traced, and two runs of one seed must agree on every outcome count.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var det [2]map[string]int64
			for i, traced := range []bool{false, true} {
				// 0.05 s: the warm-up pass and one measured pass.
				rr, err := runWorkload(w, 42, smokeSizes, 0.05, traced)
				if err != nil {
					t.Fatal(err)
				}
				if rr.failed != 0 || rr.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, rr.failed, rr.attempted, rr.violations)
				}
				for _, d := range rr.defs() {
					v := rr.value(d.Name)
					if v != v || (!traced && v <= 0) {
						t.Errorf("traced=%v: %s = %v", traced, d.Name, v)
					}
				}
				if err := rr.print(io.Discard); err != nil {
					t.Fatal(err)
				}
				det[i] = rr.deterministic()
			}
			if len(det[0]) == 0 || !reflect.DeepEqual(det[0], det[1]) {
				t.Fatalf("outcome counts differ between two runs of one seed:\n%v\n%v", det[0], det[1])
			}
		})
	}
}

// The traced run must produce the numbers later issues cite.
func TestTracedRunHasCitedMetrics(t *testing.T) {
	for workloadName, names := range map[string][]string{
		"backlog": {"sched.scaling_exponent", "sched.submit_us_per_build", "sched.drive_us_per_build"},
		"restart": {"persist.attach_ms", "store.open_ms", "store.append_us_per_record", "recover_s"},
		"measure": {"trace.encode_csv_ms", "trace.encode_v2_ms", "analytics.compute_ms_p50", "core.local_experiment_ms_p50"},
		"dashboard": {"feedgw.replay_samples_per_s", "httpv1.replay_samples_per_s", "feedhub.post_ns_per_sample",
			"snapshot.status_read_us_p50", "feed_samples_per_s"},
	} {
		w, _ := findWorkload(workloadName)
		rr, err := runWorkload(w, 7, smokeSizes, 0.05, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if v := rr.value(name); v == 0 || v != v {
				t.Errorf("%s: %s = %v", workloadName, name, v)
			}
		}
		if len(rr.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", workloadName)
		}
	}
}
