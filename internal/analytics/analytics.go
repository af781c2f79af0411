// Package analytics is the server-side trace query engine: batch
// windowed aggregates (mean/min/max/exact P50 and P95/trapezoid energy
// per time bucket, plus whole-trace rollups) computed over stored binary
// traces, so dashboards fetch kilobytes of summaries instead of
// re-downloading whole artifacts.
//
// Each time bucket, and the whole-trace rollup, is summarized by a
// samples.ExactSummary: the moments and integral the capture's streaming
// summary folds, folded alike, and exact quantiles by one of two rules.
// A trace on a grid (a version 3 trace's header grid, a grid Series' own)
// is counted on it, and a bucket or rollup keeps only its level counts;
// any other keeps its values and reads the quantiles off a sorted copy.
// Every row, the Total and each bucket, is rendered through
// api.NewRunSummary, as a build's stored summary is. A query decodes its
// trace once, a chunk (samples.ChunkLen samples) at a time, into a small
// ring of recycled column buffers, and folds each chunk into every
// aggregator it needs. A build's stored api.RunSummary already holds the
// whole-trace rollup: a query given that summary renders its Total row
// from it and folds only the windows (a query with no window folds
// nothing and only decodes, for the epoch, the span and the checks).
// Without one, the rollup is folded beside the windows. Each aggregator
// folds on a goroutine of its own, beside the decode and each other. A
// query costs one decode, one aggregator call per chunk per aggregator (a
// window edge inside a chunk cuts it in two), a walk of the counts or a
// sort per bucket, and memory for the ring, the buckets and the counts
// of a trace on a grid or the values of the largest bucket of any other;
// a folded rollup off a grid holds one copy of the trace's values
// besides. The folds shorten a query only while cores are free: with as
// many queries in flight as cores, they add no speed, only a hand-off per
// chunk. Each aggregator sees every sample in order, so a folded rollup
// accumulates exactly the terms the capture-time summary did, in the same
// order, and finds the quantiles the build stored: its row is
// bit-identical to the one rendered from the RunSummary stored when the
// build finished.
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
// folds as they are stored, uncopied, or, for steady offsets or levels,
// expanded into the ring's chunk buffers; the values are counted on the
// trace's grid if it has one. WindowNS must be non-negative; Artifact is
// echoed, not interpreted.
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
	scale, max := tr.Grid()
	a := newAggs(q.WindowNS, nil, scale, max)
	runFolds(a.folds(), func(p *pipeline) {
		tr.Samples().Stored(0, func(c samples.Chunk) bool {
			if c.T != nil && c.V != nil {
				p.emit(batch{t: c.T, v: c.V})
				return true
			}
			// Steady offsets or levels: expanded into a ring slot, the
			// levels handed on as they are stored.
			buf := p.buffer()
			p.emit(batch{t: c.Offsets(buf.t[:]), v: c.Values(buf.v[:]), k: c.K, buf: buf})
			return true
		})
	})
	return a.result(q, fields, epochNS, durationNS), nil
}

// ComputeBinary is Compute(trace.DecodeBinary(data)), to the bit, without
// the Series in between, whose own streaming summary would fold every
// sample a first time. The bytes are decoded once, a chunk per call
// straight into the ring's chunk buffers, and nothing is sized from what
// they claim; on the header's grid, if it has one, each value is decoded
// beside its level, which the folds count as it is. A decode error
// outranks a bad query, and the bucket bound
// is checked against the whole span: once a chunk reaches past
// MaxBuckets windows the folds stop and the decoding goes on. An error
// that is not ErrBadQuery says data is no binary trace.
//
// total, when not nil, is the whole-trace summary of exactly these
// bytes, as api.NewRunSummary renders a capture's Series.Live: the
// Total row is rendered from it and the bytes fold only into the
// windows, or, with no window, into nothing. They are still decoded, and every check
// still holds: the decode finds the epoch and the span, and refuses
// bytes that are no trace. nil folds the whole-trace rollup too.
func ComputeBinary(data []byte, q api.AnalyticsQuery, total *api.RunSummary) (*api.AnalyticsResult, error) {
	h, payload, err := trace.DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	d := h.Decoder(payload)
	// A bad query folds nothing; its bytes are decoded all the same, so
	// that a decode error outranks it.
	fields, qerr := checkQuery(q)
	var a aggs
	if qerr == nil {
		a = newAggs(q.WindowNS, total, h.Scale, h.Max)
	}
	var span int64 // the last sample's offset from the first; 0 with none
	runFolds(a.folds(), func(p *pipeline) {
		buf := p.buffer()
		for {
			var k int
			var ks []uint32
			if h.Scale > 0 { // the values with their levels, to count as they are
				k, err = d.NextLevels(buf.t[:], buf.v[:], buf.k[:])
				ks = buf.k[:k]
			} else {
				k, err = d.Next(buf.t[:], buf.v[:])
			}
			if err != nil || k == 0 {
				return
			}
			span = buf.t[k-1]
			if checkBuckets(q.WindowNS, span) == nil {
				p.emit(batch{t: buf.t[:k], v: buf.v[:k], k: ks, buf: buf})
				buf = p.buffer()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if qerr != nil {
		return nil, qerr
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
		// n is the bucket count less one, which a span of the whole of
		// int64 time cannot overflow.
		if n := durationNS / windowNS; n >= MaxBuckets {
			return fmt.Errorf("%w: window %dns over a %dns trace makes %d buckets (max %d)",
				ErrBadQuery, windowNS, durationNS, uint64(n)+1, MaxBuckets)
		}
	}
	return nil
}

// aggs are one query's aggregators: the whole-trace rollup, either
// known (a stored summary) or folded (an exact summary of every value),
// and, when bucketing was asked for, a Windowed summarizing the same
// stream per bucket. The zero aggs folds nothing.
type aggs struct {
	known *api.RunSummary
	total *samples.ExactSummary
	wd    *samples.Windowed
}

// newAggs folds the rollup unless known gives it. Both folds count the
// values on the grid k/scale, 0 ≤ k ≤ max, that the trace declares; scale
// 0 declares none.
func newAggs(windowNS int64, known *api.RunSummary, scale, max int) aggs {
	levels := func() *samples.Levels {
		if scale == 0 {
			return nil
		}
		return samples.NewLevels(float64(scale), max)
	}
	a := aggs{known: known}
	if known == nil {
		a.total = samples.NewExactSummary(levels())
	}
	if windowNS > 0 {
		a.wd = samples.NewWindowed(windowNS, levels())
	}
	return a
}

// folds returns one chunk fold per folding aggregator, each folding a
// chunk as one run. They share no state, so each runs on a goroutine of
// its own.
func (a aggs) folds() []fold {
	var folds []fold
	if a.total != nil {
		folds = append(folds, a.total.AddLevelRun)
	}
	if a.wd != nil {
		folds = append(folds, a.wd.AddLevelRun)
	}
	return folds
}

// result renders the aggregators as the answer to q. Every row is
// rendered from a RunSummary by one fill: the Total from the known or
// folded one, so a stored summary and a fold of the same samples answer
// alike, bit for bit, and each bucket from its own.
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
	fill := func(b *api.AnalyticsBucket, sum api.RunSummary) {
		b.Samples, b.NaNs = sum.Samples-sum.NaNs, sum.NaNs
		if b.Samples == 0 {
			return // no valid samples: aggregate fields stay absent
		}
		if has(api.AnalyticsFieldMean) {
			b.MeanMA = ptr(sum.MeanMA)
		}
		if has(api.AnalyticsFieldMinMax) {
			b.MinMA, b.MaxMA = ptr(float64(sum.MinMA)), ptr(float64(sum.MaxMA))
		}
		if has(api.AnalyticsFieldQuantiles) {
			b.P50MA, b.P95MA = ptr(sum.P50MA), ptr(sum.P95MA)
		}
		if has(api.AnalyticsFieldEnergy) {
			b.EnergyMAH = ptr(sum.EnergyMAH)
		}
	}

	sum := a.known
	if sum == nil {
		folded := api.NewRunSummary(a.total.Snapshot())
		sum = &folded
	}
	res.Total = api.AnalyticsBucket{StartNS: 0, EndNS: durationNS}
	fill(&res.Total, *sum)

	if a.wd != nil {
		for _, b := range a.wd.Buckets() {
			// The last bucket of a trace that reaches the end of int64 time
			// ends there.
			out := api.AnalyticsBucket{StartNS: b.StartNS, EndNS: b.StartNS + min(q.WindowNS, math.MaxInt64-b.StartNS)}
			fill(&out, api.NewRunSummary(b.LiveSummary))
			res.Buckets = append(res.Buckets, out)
		}
	}
	return res
}

// ptr is an aggregate as the answer carries it: absent when it is not
// finite (an empty row's NaN, an energy that overflowed to ±Inf), which
// no JSON number holds and a zero would misstate.
func ptr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
