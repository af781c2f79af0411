package main

import (
	"strconv"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed regression, share of the parent's median
}

// endToEnd are the figures a user of the platform would see. Every
// workload reports every one of them; README.md says what each means on
// each workload (the operation behind op_ms_p50 differs by workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"builds_per_s", "builds/s", "higher", 0.25},
	{"reads_per_s", "reads/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
}

// perLayer are single-layer figures, measured in the traced run from the
// benchmark's side of each public boundary. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	// The issue's workload headlines that are not gated under their own
	// name (see README.md "Deviations").
	{"feed_samples_per_s", "samples/s", "higher", 0},
	{"experiment_ms_p50", "ms", "lower", 0},
	{"analytics_ms_p50", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},

	{"client.submit_ms_p50", "ms", "lower", 0},
	{"client.submit_ms_p80", "ms", "lower", 0},
	{"client.status_ms_p50", "ms", "lower", 0},
	{"client.status_ms_p99", "ms", "lower", 0},
	{"client.stream_open_ms_p50", "ms", "lower", 0},
	{"client.follow_ms_p50", "ms", "lower", 0},
	{"client.artifact_ms_p50", "ms", "lower", 0},
	{"client.retries", "count", "lower", 0},

	{"httpv1.submit_handler_ms_p50", "ms", "lower", 0},
	{"httpv1.status_handler_us_p50", "us", "lower", 0},
	{"httpv1.nodes_handler_us_p50", "us", "lower", 0},
	{"httpv1.metrics_handler_us_p50", "us", "lower", 0},
	{"httpv1.stream_bytes_per_sample", "bytes", "lower", 0},
	{"httpv1.replay_samples_per_s", "samples/s", "higher", 0},

	{"sched.submit_us_per_build", "us", "lower", 0},
	{"sched.drive_us_per_build", "us", "lower", 0},
	{"sched.start_lag_us_p50", "us", "lower", 0},
	{"sched.lock_acq_per_build", "count", "lower", 0},
	{"sched.redrain_us_per_build", "us", "lower", 0},
	{"sched.scaling_exponent", "exponent", "lower", 0},

	{"snapshot.status_read_us_p50", "us", "lower", 0},
	{"snapshot.nodes_read_us_p50", "us", "lower", 0},
	{"snapshot.read_lock_acq", "count", "lower", 0},

	{"store.appends_per_build", "count", "lower", 0},
	{"store.wal_bytes_per_build", "bytes", "lower", 0},
	{"store.fsyncs", "count", "lower", 0},
	{"store.fsync_ms_p50", "ms", "lower", 0},
	{"store.append_us_per_record", "us", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.compact_ms", "ms", "lower", 0},
	{"store.snapshot_bytes", "bytes", "lower", 0},

	{"persist.attach_ms", "ms", "lower", 0},
	{"persist.attach_snapshot_ms", "ms", "lower", 0},
	{"persist.requeued", "count", "lower", 0},
	{"persist.resumed", "count", "lower", 0},

	{"feedhub.post_ns_per_sample", "ns", "lower", 0},
	{"feedhub.samples_posted", "count", "higher", 0},
	{"feedhub.samples_dropped", "count", "lower", 0},
	{"feedhub.events_posted", "count", "higher", 0},
	{"feedhub.events_dropped", "count", "lower", 0},
	{"feedhub.samples_per_frame", "count", "higher", 0},

	{"feedgw.replay_samples_per_s", "samples/s", "higher", 0},
	{"feedgw.reconnects", "count", "lower", 0},

	{"core.local_experiment_ms_p50", "ms", "lower", 0},
	{"core.sim_speedup", "x", "higher", 0},
	{"core.dropped_live_samples", "count", "lower", 0},

	{"trace.encode_v2_ms", "ms", "lower", 0},
	{"trace.encode_csv_ms", "ms", "lower", 0},
	{"trace.decode_v2_ms", "ms", "lower", 0},
	{"trace.v2_bytes_per_sample", "bytes", "lower", 0},
	{"samples.append_ns_per_sample", "ns", "lower", 0},

	{"analytics.compute_ms_p50", "ms", "lower", 0},
	{"analytics.cache_hit_ms_p50", "ms", "lower", 0},
	{"analytics.cache_hit_ratio", "ratio", "higher", 0},

	{"harness.backend_us_per_build", "us", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.allocs_per_build", "count", "lower", 0},
	{"proc.alloc_bytes_per_build", "bytes", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"bench.calibration_ns", "ns", "lower", 0},
	{"bench.unattributed_share", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
}

// splitPercentile recognises names like "client.submit_ms_p95" and
// returns the latency series they summarise ("client.submit_ms") and the
// percentile.
func splitPercentile(name string) (series string, p float64, ok bool) {
	i := strings.LastIndex(name, "_p")
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[i+2:])
	if err != nil || n <= 0 || n >= 100 {
		return "", 0, false
	}
	return name[:i], float64(n), true
}

// metricValue computes one metric for a run. A run-level value (a probe,
// or a figure that is not per pass) wins; then the median of the per-pass
// values of that name; then, for a percentile name, that percentile of
// its latency series pooled over the passes (a tail percentile with fewer
// than ten samples beyond it is not reported). A metric nothing produced
// reads 0.
func metricValue(name string, passes []*passResult, runVals map[string]float64) float64 {
	if v, ok := runVals[name]; ok {
		return v
	}
	var per []float64
	for _, ps := range passes {
		if v, ok := ps.vals[name]; ok {
			per = append(per, v)
		}
	}
	if len(per) > 0 {
		return median(per)
	}
	if series, p, ok := splitPercentile(name); ok {
		var pool []float64
		for _, ps := range passes {
			pool = append(pool, ps.lats[series]...)
		}
		// The reporting rule: a tail percentile needs ten samples beyond
		// it, or it is not reported at all.
		if p > 50 && float64(len(pool))*(100-p) < 10*100 {
			return 0
		}
		return percentile(pool, p)
	}
	return 0
}

// pooledCount is how many latency samples back a percentile metric.
func pooledCount(series string, passes []*passResult) int {
	n := 0
	for _, ps := range passes {
		n += len(ps.lats[series])
	}
	return n
}
