// Package analytics is the server-side trace query engine: batch
// windowed aggregates (mean/min/max/P² quantiles/trapezoid energy per
// time bucket, plus whole-trace rollups) computed over stored binary
// traces in one streaming pass, so dashboards fetch kilobytes of
// summaries instead of re-downloading whole artifacts.
//
// The engine reuses the capture path's streaming aggregators
// (internal/samples): a query costs one aggregator update per sample
// and O(buckets) memory, never a second copy of the trace. The rollup
// row accumulates exactly the terms the capture-time summary did, in
// the same order, so its energy integral is bit-identical to the
// RunSummary produced when the build finished.
//
// Results are plain api.AnalyticsResult values; the HTTP layer owns
// caching (see Cache) and RBAC.
package analytics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/samples"
	"batterylab/internal/trace"
)

// ErrBadQuery marks a query the engine rejects before touching the
// trace (unknown field, non-positive window, too many buckets). The
// HTTP layer maps it to a 400.
var ErrBadQuery = errors.New("analytics: bad query")

// MaxBuckets bounds one query's bucket count: a window that slices the
// trace finer than this is a client error (the response would dwarf
// the artifact the query exists to avoid downloading).
const MaxBuckets = 20_000

// allFields is the canonical sorted field set.
var allFields = []string{
	api.AnalyticsFieldEnergy,
	api.AnalyticsFieldMean,
	api.AnalyticsFieldMinMax,
	api.AnalyticsFieldQuantiles,
}

// NormalizeFields validates and canonicalizes a field selection: empty
// means every field, duplicates collapse, order is sorted. The result
// is stable for equal selections — cache keys depend on that.
func NormalizeFields(fields []string) ([]string, error) {
	if len(fields) == 0 {
		return append([]string(nil), allFields...), nil
	}
	set := map[string]bool{}
	for _, f := range fields {
		ok := false
		for _, known := range allFields {
			if f == known {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: unknown field %q (have %v)", ErrBadQuery, f, allFields)
		}
		set[f] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out, nil
}

// Compute runs one query over a decoded trace in a single streaming
// pass. WindowNS must be non-negative; Artifact is echoed, not
// interpreted.
func Compute(tr *trace.Series, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	var epochNS int64
	if tr.Len() > 0 {
		epochNS = tr.At(0).T.UnixNano()
	}
	return compute(q, epochNS, tr.Duration().Nanoseconds(), func(add func(tNanos int64, v float64)) {
		tr.Samples().Iter(func(tNanos int64, v float64) bool { add(tNanos, v); return true })
	})
}

// ComputeBinary is Compute(trace.DecodeBinary(data)), to the bit, without
// the Series in between, whose own streaming summary would fold every
// sample a first time. The bytes are decoded twice — to validate them and
// learn the span the bucket bound is checked against, then to aggregate —
// and nothing is sized from what they claim. An error that is not
// ErrBadQuery says data is no binary trace.
func ComputeBinary(data []byte, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	h, payload, err := trace.DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	var first, last int64
	n := 0
	if err := h.DecodeSamples(payload, func(off int64, _ float64) {
		if n == 0 {
			first = off
		}
		last = off
		n++
	}); err != nil {
		return nil, err
	}
	// As DecodeBinary builds them: the first sample is the epoch, a trace
	// of one sample spans nothing.
	var epochNS, durationNS int64
	if n > 0 {
		epochNS = h.Epoch().Add(time.Duration(first)).UnixNano()
	}
	if n > 1 {
		durationNS = last - first
	}
	return compute(q, epochNS, durationNS, func(add func(tNanos int64, v float64)) {
		h.DecodeSamples(payload, func(off int64, v float64) { add(off-first, v) }) // decoded clean above
	})
}

// compute is the engine: one query over the samples each hands to add, in
// order, as nanoseconds after the first (the trace's native storage: no
// time conversion per sample), the trace's epoch and span known up front.
func compute(q api.AnalyticsQuery, epochNS, durationNS int64, each func(add func(tNanos int64, v float64))) (*api.AnalyticsResult, error) {
	if q.WindowNS < 0 {
		return nil, fmt.Errorf("%w: negative window", ErrBadQuery)
	}
	fields, err := NormalizeFields(q.Fields)
	if err != nil {
		return nil, err
	}
	if q.WindowNS > 0 {
		if n := durationNS/q.WindowNS + 1; n > MaxBuckets {
			return nil, fmt.Errorf("%w: window %dns over a %dns trace makes %d buckets (max %d)",
				ErrBadQuery, q.WindowNS, durationNS, n, MaxBuckets)
		}
	}

	res := &api.AnalyticsResult{
		Artifact:   q.Artifact,
		EpochNS:    epochNS,
		DurationNS: durationNS,
		WindowNS:   q.WindowNS,
		Fields:     fields,
	}

	// One pass: the whole-trace rollup (the capture's own stream summary)
	// and, when bucketing was asked for, a Windowed splitting the same
	// stream.
	total := samples.NewStreamSummary()
	var wd *samples.Windowed
	if q.WindowNS > 0 {
		wd = samples.NewWindowed(0, q.WindowNS, 0.5, 0.95)
	}
	each(func(tNanos int64, v float64) {
		total.Add(tNanos, v)
		if wd != nil {
			wd.Add(tNanos, v)
		}
	})

	has := func(f string) bool {
		for _, g := range fields {
			if g == f {
				return true
			}
		}
		return false
	}
	fill := func(b *api.AnalyticsBucket, n int64, mean, min, max, q50, q95, integralSeconds float64) {
		b.Samples = n
		if n == 0 {
			return // no valid samples: aggregate fields stay absent
		}
		if has(api.AnalyticsFieldMean) {
			b.MeanMA = ptr(mean)
		}
		if has(api.AnalyticsFieldMinMax) {
			b.MinMA, b.MaxMA = ptr(min), ptr(max)
		}
		if has(api.AnalyticsFieldQuantiles) {
			b.P50MA, b.P95MA = ptr(q50), ptr(q95)
		}
		if has(api.AnalyticsFieldEnergy) {
			b.EnergyMAH = ptr(integralSeconds / 3600)
		}
	}

	sum := total.Snapshot()
	res.Total = api.AnalyticsBucket{StartNS: 0, EndNS: durationNS, NaNs: int64(sum.NaNs)}
	fill(&res.Total, int64(sum.N), sum.Mean, sum.Min, sum.Max, sum.P50, sum.P95, sum.IntegralSeconds)

	if wd != nil {
		for _, b := range wd.Buckets() {
			out := api.AnalyticsBucket{StartNS: b.StartNS, EndNS: b.StartNS + q.WindowNS, NaNs: b.NaNs}
			fill(&out, b.N, b.Mean, b.Min, b.Max, b.Quantiles[0], b.Quantiles[1], b.IntegralSeconds)
			res.Buckets = append(res.Buckets, out)
		}
	}
	return res, nil
}

func ptr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil // JSON has no NaN; absent beats lying with a zero
	}
	return &v
}
