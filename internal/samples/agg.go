package samples

import (
	"math"
	"sort"
)

// Aggregator consumes one timestamped sample at a time in O(1). The
// capture path feeds every registered aggregator as samples arrive, so
// summaries are ready the instant capture stops — no teardown re-scan.
type Aggregator interface {
	Add(tNanos int64, v float64)
}

// Welford is the numerically stable online mean/variance accumulator
// (Welford 1962), extended with min/max. The zero value is ready to use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
	nans     int64
}

// Add implements Aggregator. NaN values are skipped and counted.
func (w *Welford) Add(_ int64, v float64) { w.Observe(v) }

// Observe folds one value in.
func (w *Welford) Observe(v float64) {
	if math.IsNaN(v) {
		w.nans++
		return
	}
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N reports how many (non-NaN) values were observed.
func (w *Welford) N() int64 { return w.n }

// NaNs reports how many NaN values were skipped.
func (w *Welford) NaNs() int64 { return w.nans }

// Mean reports the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var reports the running sample variance (n−1 denominator; 0 for n<2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std reports the running sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min reports the smallest observed value (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest observed value (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// P2Quantile estimates one quantile online with the P² algorithm (Jain
// & Chlamtac, CACM 1985): five markers track the quantile's position
// without storing the sample. Exact for n ≤ 5; see the package comment
// for the tested error bound beyond that. Construct with NewP2Quantile.
type P2Quantile struct {
	p float64
	n int64 // non-NaN count

	// q are marker heights, pos their current positions (1-based),
	// want their desired positions.
	q    [5]float64
	pos  [5]float64
	want [5]float64
	inc  [5]float64
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("samples: P2 quantile p outside (0, 1)")
	}
	e := &P2Quantile{p: p}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add implements Aggregator. NaN values are skipped.
func (e *P2Quantile) Add(_ int64, v float64) { e.Observe(v) }

// Observe folds one value in.
func (e *P2Quantile) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if e.n < 5 {
		e.q[e.n] = v
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			e.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	e.n++

	// Find the cell k the new value falls in, growing the extremes.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			q := e.parabolic(i, s)
			if e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker update.
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback update when the parabola leaves the bracket.
func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value reports the current quantile estimate. For n ≤ 5 it is the
// exact linearly interpolated order statistic (matching
// stats.Quantile); NaN when empty.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n <= 5 {
		buf := make([]float64, e.n)
		copy(buf, e.q[:e.n])
		sort.Float64s(buf)
		return QuantileSorted(buf, e.p)
	}
	return e.q[2]
}

// QuantileSorted returns the p-quantile of an already-sorted sample by
// linear interpolation between order statistics. It is the single
// source of the quantile convention: stats.Quantile delegates here, so
// P2Quantile's small-n exact path agrees with the batch API bit for
// bit.
func QuantileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Trapezoid integrates a timestamped series over time with the
// trapezoid rule, yielding unit·seconds. It accumulates exactly the
// terms of the batch loop it replaces, in the same order, so results
// are bit-identical.
type Trapezoid struct {
	n     int64
	prevT int64
	prevV float64
	total float64
}

// Add implements Aggregator. NaN values are skipped entirely (the
// integral bridges the surrounding samples).
func (tr *Trapezoid) Add(tNanos int64, v float64) {
	if math.IsNaN(v) {
		return
	}
	if tr.n > 0 {
		dt := float64(tNanos-tr.prevT) / 1e9
		tr.total += dt * (v + tr.prevV) / 2
	}
	tr.prevT, tr.prevV = tNanos, v
	tr.n++
}

// IntegralSeconds reports the running integral in unit·seconds.
func (tr *Trapezoid) IntegralSeconds() float64 { return tr.total }

// LiveSummary is an O(1) snapshot of a capture in flight: the running
// moments, extremes, P² quantile estimates and time integral of every
// sample seen so far. Observers read this mid-run instead of waiting
// for teardown.
type LiveSummary struct {
	// N is the number of samples aggregated (NaNs excluded).
	N int
	// Mean and Std are the running Welford moments.
	Mean, Std float64
	// Min and Max are exact running extremes.
	Min, Max float64
	// P50 and P95 are P² streaming quantile estimates (exact for N ≤ 5;
	// see the package comment for bounds beyond that). NaN when N = 0.
	P50, P95 float64
	// IntegralSeconds is the running trapezoidal time integral
	// (unit·seconds; for a mA series, milliamp-seconds).
	IntegralSeconds float64
	// NaNs counts invalid (NaN) samples that were skipped.
	NaNs int
}

// StreamSummary bundles the streaming aggregators the capture path
// needs: Welford moments, P50/P95 P² quantiles and the trapezoidal
// integral. Construct with NewStreamSummary.
type StreamSummary struct {
	mom   Welford
	p50   *P2Quantile
	p95   *P2Quantile
	integ Trapezoid
}

// NewStreamSummary returns an empty stream summary.
func NewStreamSummary() *StreamSummary {
	return &StreamSummary{p50: NewP2Quantile(0.5), p95: NewP2Quantile(0.95)}
}

// Add implements Aggregator, feeding every bundled aggregator.
func (ss *StreamSummary) Add(tNanos int64, v float64) {
	ss.mom.Observe(v)
	ss.p50.Observe(v)
	ss.p95.Observe(v)
	ss.integ.Add(tNanos, v)
}

// Snapshot reports the live summary of everything added so far.
func (ss *StreamSummary) Snapshot() LiveSummary {
	return LiveSummary{
		N:               int(ss.mom.N()),
		Mean:            ss.mom.Mean(),
		Std:             ss.mom.Std(),
		Min:             ss.mom.Min(),
		Max:             ss.mom.Max(),
		P50:             ss.p50.Value(),
		P95:             ss.p95.Value(),
		IntegralSeconds: ss.integ.IntegralSeconds(),
		NaNs:            int(ss.mom.NaNs()),
	}
}
