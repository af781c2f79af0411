// Package analytics is the server-side trace query engine: batch
// windowed aggregates (mean/min/max/P² quantiles/trapezoid energy per
// time bucket, plus whole-trace rollups) computed over stored binary
// traces, so dashboards fetch kilobytes of summaries instead of
// re-downloading whole artifacts.
//
// The engine reuses the capture path's streaming aggregators
// (internal/samples). A query decodes its trace once, a chunk
// (samples.ChunkLen samples) at a time, into a small ring of recycled
// column buffers, and folds each chunk into every aggregator it asked
// for: the whole-trace rollup and, for a windowed query, the windows.
// Each aggregator folds on a goroutine of its own, beside the decode and
// each other. A query costs one decode, one aggregator call per chunk
// per aggregator (a window edge inside a chunk cuts it in two), and
// O(buckets + ring) memory, never a second copy of the trace. The folds
// shorten a query only while cores are free: with as many queries in
// flight as cores, they add no speed, only a hand-off per chunk. Each
// aggregator sees every sample in order, so the rollup row accumulates
// exactly the terms the capture-time summary did, in the same order, and
// its energy integral is bit-identical to the RunSummary produced when
// the build finished.
//
// Results are plain api.AnalyticsResult values; the HTTP layer owns
// caching (see Cache) and RBAC.
package analytics

import (
	"errors"
	"fmt"
	"math"
	"sort"

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

// Compute runs one query over a decoded trace, whose chunks feed the
// folds as they are stored, uncopied. WindowNS must be non-negative;
// Artifact is echoed, not interpreted.
func Compute(tr *trace.Series, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	fields, err := checkQuery(q)
	if err != nil {
		return nil, err
	}
	durationNS := tr.Duration().Nanoseconds()
	if err := checkBuckets(q.WindowNS, durationNS); err != nil {
		return nil, err
	}
	var epochNS int64
	if tr.Len() > 0 {
		epochNS = tr.At(0).T.UnixNano()
	}
	a := newAggs(q.WindowNS)
	runFolds(a.folds(), func(p *pipeline) {
		tr.Samples().Chunks(0, func(t []int64, v []float64) bool {
			p.emit(batch{t: t, v: v})
			return true
		})
	})
	return a.result(q, fields, epochNS, durationNS), nil
}

// ComputeBinary is Compute(trace.DecodeBinary(data)), to the bit, without
// the Series in between, whose own streaming summary would fold every
// sample a first time. The bytes are decoded once, a chunk per call
// straight into the ring's chunk buffers, and nothing is sized from what
// they claim. A decode error outranks a bad query, and the bucket bound
// is checked against the whole span: once a chunk reaches past
// MaxBuckets windows the folds stop and the decoding goes on. An error
// that is not ErrBadQuery says data is no binary trace.
func ComputeBinary(data []byte, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	h, payload, err := trace.DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	d := h.Decoder(payload)
	fields, qerr := checkQuery(q)
	if qerr != nil {
		ring := rings.Get().(*[ringLen]chunkBuf)
		defer rings.Put(ring)
		for {
			k, err := d.Next(ring[0].t[:], ring[0].v[:])
			if err != nil {
				return nil, err
			}
			if k == 0 {
				return nil, qerr
			}
		}
	}

	a := newAggs(q.WindowNS)
	var span int64 // the last sample's offset from the first; 0 with none
	runFolds(a.folds(), func(p *pipeline) {
		buf := p.buffer()
		for {
			var k int
			if k, err = d.Next(buf.t[:], buf.v[:]); err != nil || k == 0 {
				return
			}
			span = buf.t[k-1]
			if checkBuckets(q.WindowNS, span) == nil {
				p.emit(batch{t: buf.t[:k], v: buf.v[:k], buf: buf})
				buf = p.buffer()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// As DecodeBinary builds them: the first sample is the epoch, and the
	// last one's offset from it is the duration.
	var epochNS int64
	if h.Count > 0 {
		epochNS = d.Start().UnixNano()
	}
	if err := checkBuckets(q.WindowNS, span); err != nil {
		return nil, err
	}
	return a.result(q, fields, epochNS, span), nil
}

// checkQuery validates what of q needs no trace: the window's sign and
// the field selection, which it returns canonical.
func checkQuery(q api.AnalyticsQuery) ([]string, error) {
	if q.WindowNS < 0 {
		return nil, fmt.Errorf("%w: negative window", ErrBadQuery)
	}
	return NormalizeFields(q.Fields)
}

// checkBuckets refuses a window that slices a trace spanning durationNS
// into more than MaxBuckets buckets.
func checkBuckets(windowNS, durationNS int64) error {
	if windowNS > 0 {
		if n := durationNS/windowNS + 1; n > MaxBuckets {
			return fmt.Errorf("%w: window %dns over a %dns trace makes %d buckets (max %d)",
				ErrBadQuery, windowNS, durationNS, n, MaxBuckets)
		}
	}
	return nil
}

// aggs are one query's aggregators: the whole-trace rollup (the
// capture's own stream summary) and, when bucketing was asked for, a
// Windowed splitting the same stream.
type aggs struct {
	total *samples.StreamSummary
	wd    *samples.Windowed
}

func newAggs(windowNS int64) aggs {
	a := aggs{total: samples.NewStreamSummary()}
	if windowNS > 0 {
		a.wd = samples.NewWindowed(0, windowNS, 0.5, 0.95)
	}
	return a
}

// folds returns one chunk fold per aggregator, each folding a chunk as
// one run. They share no state, so each runs on a goroutine of its own.
func (a aggs) folds() []func(t []int64, v []float64) {
	folds := []func(t []int64, v []float64){a.total.AddRun}
	if a.wd != nil {
		folds = append(folds, a.wd.AddRun)
	}
	return folds
}

// result renders the folded aggregators as the answer to q.
func (a aggs) result(q api.AnalyticsQuery, fields []string, epochNS, durationNS int64) *api.AnalyticsResult {
	res := &api.AnalyticsResult{
		Artifact:   q.Artifact,
		EpochNS:    epochNS,
		DurationNS: durationNS,
		WindowNS:   q.WindowNS,
		Fields:     fields,
	}
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

	sum := a.total.Snapshot()
	res.Total = api.AnalyticsBucket{StartNS: 0, EndNS: durationNS, NaNs: int64(sum.NaNs)}
	fill(&res.Total, int64(sum.N), sum.Mean, sum.Min, sum.Max, sum.P50, sum.P95, sum.IntegralSeconds)

	if a.wd != nil {
		for _, b := range a.wd.Buckets() {
			out := api.AnalyticsBucket{StartNS: b.StartNS, EndNS: b.StartNS + q.WindowNS, NaNs: b.NaNs}
			fill(&out, b.N, b.Mean, b.Min, b.Max, b.Quantiles[0], b.Quantiles[1], b.IntegralSeconds)
			res.Buckets = append(res.Buckets, out)
		}
	}
	return res
}

func ptr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil // JSON has no NaN; absent beats lying with a zero
	}
	return &v
}
