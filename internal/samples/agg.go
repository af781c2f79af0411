package samples

import (
	"math"
	"sort"
)

// Welford is the numerically stable online mean/variance accumulator
// (Welford 1962), extended with min/max. The zero value is ready to use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
	nans     int64
}

// Observe folds one value in: a run of one.
func (w *Welford) Observe(v float64) { w.ObserveRun([]float64{v}) }

// ObserveRun folds vs in, in order. NaN values are skipped and counted.
// The state is held in locals for the run; the arithmetic is a value's
// at a time, in order, so a run ends where its values folded one by one
// would, bit for bit.
func (w *Welford) ObserveRun(vs []float64) {
	n, mean, m2, lo, hi, nans := w.n, w.mean, w.m2, w.min, w.max, w.nans
	for _, v := range vs {
		if math.IsNaN(v) {
			nans++
			continue
		}
		n++
		if n == 1 {
			lo, hi = v, v
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		d := v - mean
		mean += d / float64(n)
		m2 += d * (v - mean)
	}
	w.n, w.mean, w.m2, w.min, w.max, w.nans = n, mean, m2, lo, hi, nans
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

	// q are marker heights and pos their current positions (1-based).
	// want are the desired positions of the interior markers 1–3 and inc
	// what each observation adds to them; the extremes' desired
	// positions are never read, so they are not kept.
	q    [5]float64
	pos  [5]float64
	want [3]float64
	inc  [3]float64
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("samples: P2 quantile p outside (0, 1)")
	}
	e := &P2Quantile{p: p}
	e.want = [3]float64{1 + 2*p, 1 + 4*p, 3 + 2*p}
	e.inc = [3]float64{p / 2, p, (1 + p) / 2}
	return e
}

// Observe folds one value in: a run of one.
func (e *P2Quantile) Observe(v float64) { e.ObserveRun([]float64{v}) }

// ObserveRun folds vs in, in order. NaN values are skipped. The first
// five values are kept as they come; after that the markers are held in
// locals for the rest of the run, and each value moves them with the
// arithmetic, in the order, of folding it alone — so a run ends where its
// values folded one by one would, bit for bit.
func (e *P2Quantile) ObserveRun(vs []float64) {
	for len(vs) > 0 && e.n < 5 {
		v := vs[0]
		vs = vs[1:]
		if math.IsNaN(v) {
			continue
		}
		e.q[e.n] = v
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			e.pos = [5]float64{1, 2, 3, 4, 5}
		}
	}
	if len(vs) == 0 {
		return
	}
	// The markers as scalars: q0–q4 the heights, p0–p4 the positions,
	// w0–w2 the interior markers' desired positions.
	n := e.n
	q0, q1, q2, q3, q4 := e.q[0], e.q[1], e.q[2], e.q[3], e.q[4]
	p0, p1, p2, p3, p4 := e.pos[0], e.pos[1], e.pos[2], e.pos[3], e.pos[4]
	w0, w1, w2 := e.want[0], e.want[1], e.want[2]
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		n++

		// Find the cell the new value falls in, growing the extremes, and
		// move the markers above it up one position.
		switch {
		case v < q0:
			q0 = v
			p1++
			p2++
			p3++
		case v >= q4:
			q4 = v
		case v < q1:
			p1++
			p2++
			p3++
		case v < q2:
			p2++
			p3++
		case v < q3:
			p3++
		}
		p4++
		w0 += e.inc[0]
		w1 += e.inc[1]
		w2 += e.inc[2]

		// Adjust the interior markers toward their desired positions, in
		// order: each sees its lower neighbour already adjusted.
		if d := w0 - p1; (d >= 1 && p2-p1 > 1) || (d <= -1 && p0-p1 < -1) {
			s := p2Sign(d)
			q1 = p2Adjust(q0, q1, q2, p0, p1, p2, s)
			p1 += s
		}
		if d := w1 - p2; (d >= 1 && p3-p2 > 1) || (d <= -1 && p1-p2 < -1) {
			s := p2Sign(d)
			q2 = p2Adjust(q1, q2, q3, p1, p2, p3, s)
			p2 += s
		}
		if d := w2 - p3; (d >= 1 && p4-p3 > 1) || (d <= -1 && p2-p3 < -1) {
			s := p2Sign(d)
			q3 = p2Adjust(q2, q3, q4, p2, p3, p4, s)
			p3 += s
		}
	}
	e.n = n
	e.q = [5]float64{q0, q1, q2, q3, q4}
	e.pos = [5]float64{p0, p1, p2, p3, p4}
	e.want = [3]float64{w0, w1, w2}
}

// p2Sign is the direction, ±1, a marker d positions from where it should
// be moves.
func p2Sign(d float64) float64 {
	if d < 0 {
		return -1
	}
	return 1
}

// p2Adjust moves the height q of a marker at position p one position in
// direction s, between its neighbours (qm at pm below, qp at pp above):
// the P² piecewise-parabolic update, or the linear one when the parabola
// leaves the bracket.
func p2Adjust(qm, q, qp, pm, p, pp, s float64) float64 {
	x := q + s/(pp-pm)*
		((p-pm+s)*(qp-q)/(pp-p)+
			(pp-p-s)*(q-qm)/(p-pm))
	if qm < x && x < qp {
		return x
	}
	if s > 0 {
		return q + s*(qp-q)/(pp-p)
	}
	return q + s*(qm-q)/(pm-p)
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
	a, b, frac := quantileRanks(len(sorted), p)
	return interpolate(sorted[a], sorted[b], a == b, frac)
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

// AddRun folds a run of timestamped values in, t[i] paired with v[i], in
// order. NaN values are skipped entirely (the integral bridges the
// surrounding samples). The state is held in locals for the run; the
// terms and their order are those of folding each sample alone.
func (tr *Trapezoid) AddRun(t []int64, v []float64) {
	t = t[:len(v)]
	n, prevT, prevV, total := tr.n, tr.prevT, tr.prevV, tr.total
	for i, x := range v {
		if math.IsNaN(x) {
			continue
		}
		if n > 0 {
			dt := float64(t[i]-prevT) / 1e9
			total += dt * (x + prevV) / 2
		}
		prevT, prevV = t[i], x
		n++
	}
	tr.n, tr.prevT, tr.prevV, tr.total = n, prevT, prevV, total
}

// IntegralSeconds reports the running integral in unit·seconds.
func (tr *Trapezoid) IntegralSeconds() float64 { return tr.total }

// LiveSummary is a snapshot of a capture in flight: the running moments,
// extremes, exact P50/P95 and time integral of every sample seen so far.
// Observers read this mid-run instead of waiting for teardown.
type LiveSummary struct {
	// N is the number of samples aggregated (NaNs excluded).
	N int
	// Mean and Std are the running Welford moments.
	Mean, Std float64
	// Min and Max are exact running extremes.
	Min, Max float64
	// P50 and P95 are exact quantiles, stats.Quantile's: from the level
	// counts of a stream on a grid, or from a sorted copy of its values.
	// NaN when N = 0.
	P50, P95 float64
	// IntegralSeconds is the running trapezoidal time integral
	// (unit·seconds; for a mA series, milliamp-seconds).
	IntegralSeconds float64
	// NaNs counts invalid (NaN) samples that were skipped.
	NaNs int
}

// StreamSummary bundles the aggregators a capture is summarized by:
// Welford moments, the trapezoidal integral and, for a stream of levels
// of a grid, its Levels. Its snapshot's P50 and P95 are exact: counted
// while the levels are on, read off a sorted copy of the values
// otherwise. The zero value counts no levels and is ready to use.
type StreamSummary struct {
	mom    Welford
	integ  Trapezoid
	levels *Levels
}

// NewStreamSummary returns an empty stream summary that counts its levels
// on levels, an empty Levels of their grid, or nil for none.
func NewStreamSummary(levels *Levels) *StreamSummary {
	return &StreamSummary{levels: levels}
}

// AddRun folds a run of samples, t[i] paired with v[i], into every
// bundled aggregator of a summary on no grid. A caller may fold a stream
// later than it arrives (trace.Series does, when its summary is read):
// the snapshot depends only on the values and their order, not on how
// they were cut into runs.
func (ss *StreamSummary) AddRun(t []int64, v []float64) { ss.AddLevelRun(t, v, nil) }

// AddLevelRun is AddRun of a run of levels ks of the summary's grid (a
// grid Series' stored chunk, Series.Columns), v[i] being ks[i]'s value:
// it counts them as they are, with no check (Levels.ObserveLevels). With
// no grid, ks is nil. It panics on a run on a grid without its levels,
// folding nothing.
func (ss *StreamSummary) AddLevelRun(t []int64, v []float64, ks []uint32) {
	if ss.levels != nil && len(ks) != len(v) {
		panic("samples: a run on a grid without its levels")
	}
	ss.mom.ObserveRun(v)
	ss.integ.AddRun(t, v)
	if ss.levels != nil {
		ss.levels.ObserveLevels(ks)
	}
}

// IntegralSeconds reports the integral of everything added so far.
func (ss *StreamSummary) IntegralSeconds() float64 { return ss.integ.IntegralSeconds() }

// Snapshot reports the summary of everything added so far. cols must hold
// those values (NaNs and all, in any columns) unless the levels are on;
// they are only read, for a sorted copy, when the levels are off.
func (ss *StreamSummary) Snapshot(cols ...[]float64) LiveSummary {
	var q [2]float64
	if ss.levels.On() {
		ss.levels.Quantiles(q[:], p50p95)
	} else {
		copiedQuantiles(q[:], p50p95, cols...)
	}
	return ss.live(q)
}

// p50p95 are the quantiles a LiveSummary reports.
var p50p95 = []float64{0.5, 0.95}

// live is the summary of everything added so far, with P50 and P95 q.
func (ss *StreamSummary) live(q [2]float64) LiveSummary {
	return LiveSummary{
		N:               int(ss.mom.N()),
		Mean:            ss.mom.Mean(),
		Std:             ss.mom.Std(),
		Min:             ss.mom.Min(),
		Max:             ss.mom.Max(),
		P50:             q[0],
		P95:             q[1],
		IntegralSeconds: ss.integ.IntegralSeconds(),
		NaNs:            int(ss.mom.NaNs()),
	}
}

// ExactSummary is a StreamSummary that keeps what its snapshot's
// quantiles need, for a sample held nowhere else (an analytics bucket or
// rollup): on the grid it is given, the level counts alone; with none,
// every value but NaN, in columns of ChunkLen as a Series keeps them, so
// that holding more never copies what is held. Those columns are its
// sorted rule's copy: a snapshot sorts them in place. Counts that turn
// off, which only a count past 2³¹ does, turn into kept values before the
// run that turned them off is kept, so none is lost. The zero value has
// no grid, keeps every value but NaN and is ready to use.
type ExactSummary struct {
	sum StreamSummary
	// vals holds the non-NaN values in full columns and a last one
	// filling up, in no order; spare holds columns a Reset emptied, to
	// fill again.
	vals, spare [][]float64
}

// NewExactSummary returns an empty exact summary that counts its levels
// on levels, an empty Levels of their grid, or nil for none.
func NewExactSummary(levels *Levels) *ExactSummary {
	return &ExactSummary{sum: StreamSummary{levels: levels}}
}

// AddRun folds a run of samples, t[i] paired with v[i], into a summary
// on no grid, and keeps their values.
func (es *ExactSummary) AddRun(t []int64, v []float64) { es.AddLevelRun(t, v, nil) }

// AddLevelRun is AddRun of a run of levels ks of the summary's grid (a
// decoded grid trace's), v[i] being ks[i]'s value, as
// StreamSummary.AddLevelRun folds it: it counts them, or keeps v once the
// counts are off.
func (es *ExactSummary) AddLevelRun(t []int64, v []float64, ks []uint32) {
	l := es.sum.levels
	on := l.On()
	es.sum.AddLevelRun(t, v, ks)
	if l.On() {
		return
	}
	if on { // this run turned the counts off: what they hold is kept instead
		es.keep(l.values())
	}
	es.keep(v)
}

// keep appends the values of v but NaN to the kept values.
func (es *ExactSummary) keep(v []float64) {
	for len(v) > 0 {
		k := len(es.vals) - 1
		if k < 0 || len(es.vals[k]) == ChunkLen {
			var col []float64
			if n := len(es.spare); n > 0 {
				col, es.spare = es.spare[n-1], es.spare[:n-1]
			} else {
				col = make([]float64, 0, ChunkLen)
			}
			es.vals, k = append(es.vals, col), k+1
		}
		n := min(ChunkLen-len(es.vals[k]), len(v))
		col := es.vals[k]
		for _, x := range v[:n] {
			if x == x {
				col = append(col, x)
			}
		}
		es.vals[k], v = col, v[n:]
	}
}

// Snapshot reports the summary of everything added so far. Off its grid
// it sorts the values it keeps, which only their multiset matters for, so
// adding may go on.
func (es *ExactSummary) Snapshot() LiveSummary {
	if es.sum.levels.On() {
		return es.sum.Snapshot()
	}
	var q [2]float64
	sortedQuantiles(q[:], p50p95, es.vals...)
	return es.sum.live(q)
}

// Reset empties the summary, on its grid again, and keeps the memory its
// counts and values took.
func (es *ExactSummary) Reset() {
	for _, col := range es.vals {
		es.spare = append(es.spare, col[:0])
	}
	levels := es.sum.levels
	if levels != nil {
		levels.reset()
	}
	*es = ExactSummary{sum: StreamSummary{levels: levels}, vals: es.vals[:0], spare: es.spare}
}
