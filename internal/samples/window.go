package samples

import "math"

// WindowSummary is the aggregate of one fixed-width time bucket: the
// same streaming moments, extremes, P² quantile estimates and
// trapezoidal integral LiveSummary carries for a whole capture, scoped
// to [StartNS, StartNS+width).
type WindowSummary struct {
	// StartNS is the bucket's inclusive start, in the same clock as the
	// timestamps fed to Add (for a trace, nanoseconds since its epoch).
	StartNS int64
	// N counts samples aggregated into the bucket (NaNs excluded).
	N int64
	// NaNs counts skipped invalid samples.
	NaNs int64
	Mean float64
	Min  float64
	Max  float64
	// Quantiles holds one P² estimate per requested rank, in the order
	// passed to NewWindowed. Exact for N ≤ 5 per bucket.
	Quantiles []float64
	// IntegralSeconds is the trapezoidal time integral of the samples
	// inside the bucket (unit·seconds). Consecutive-sample spans that
	// straddle a bucket boundary are not attributed to either bucket:
	// each bucket integrates only its own samples, so the sum of bucket
	// integrals undercounts the whole-series integral by the straddling
	// spans — use a whole-series Trapezoid for the total.
	IntegralSeconds float64
}

// Windowed partitions a time-ordered stream into fixed-width buckets
// and aggregates each with fresh Welford/P²/Trapezoid state — the
// streaming core of the server's trace analytics. It is O(buckets)
// memory, independent of series length, and folds a run a bucket's
// stretch at a time: one aggregator call per stretch, not per sample.
type Windowed struct {
	originNS int64
	widthNS  int64
	ranks    []float64

	curIdx  int64 // bucket index of cur, valid when started
	started bool
	mom     Welford
	qs      []*P2Quantile
	integ   Trapezoid

	done []WindowSummary
}

// NewWindowed returns a windowed aggregator with buckets of widthNS
// nanoseconds starting at originNS (bucket k spans
// [origin+k·width, origin+(k+1)·width)). ranks lists the quantile
// ranks to estimate per bucket, e.g. 0.5, 0.95. widthNS must be
// positive.
func NewWindowed(originNS, widthNS int64, ranks ...float64) *Windowed {
	if widthNS <= 0 {
		panic("samples: NewWindowed width must be positive")
	}
	return &Windowed{originNS: originNS, widthNS: widthNS, ranks: ranks}
}

// bucketOf floors (t-origin)/width toward negative infinity, so
// pre-origin samples land in negative buckets instead of folding into
// bucket zero.
func (wd *Windowed) bucketOf(tNanos int64) int64 {
	d := tNanos - wd.originNS
	k := d / wd.widthNS
	if d%wd.widthNS < 0 {
		k--
	}
	return k
}

// Add folds one sample in: a run of one.
func (wd *Windowed) Add(tNanos int64, v float64) {
	wd.AddRun([]int64{tNanos}, []float64{v})
}

// AddRun folds a run of samples, t[i] paired with v[i]. Samples must
// arrive in non-decreasing time order (the order every Series and trace
// stores them); a sample whose bucket precedes the open one is folded
// into the open bucket rather than reopening a flushed one. The run is
// cut where a sample opens a later bucket, and each piece goes to the
// bucket's aggregators as one run.
func (wd *Windowed) AddRun(t []int64, v []float64) {
	t = t[:len(v)]
	for len(v) > 0 {
		if k := wd.bucketOf(t[0]); !wd.started {
			wd.open(k)
		} else if k > wd.curIdx {
			wd.flush()
			wd.open(k)
		}
		// A sample stays in the open bucket while bucketOf would place it
		// at or before curIdx: while t-origin, wrapped as bucketOf wraps
		// it, is below the bucket's end — when that end is an int64 at all.
		n := len(v)
		if wd.curIdx < math.MaxInt64/wd.widthNS {
			end := (wd.curIdx + 1) * wd.widthNS
			for n = 1; n < len(v) && t[n]-wd.originNS < end; n++ {
			}
		}
		wd.mom.ObserveRun(v[:n])
		for _, q := range wd.qs {
			q.ObserveRun(v[:n])
		}
		wd.integ.AddRun(t[:n], v[:n])
		t, v = t[n:], v[n:]
	}
}

func (wd *Windowed) open(k int64) {
	wd.curIdx = k
	wd.started = true
	wd.mom = Welford{}
	wd.qs = wd.qs[:0]
	for _, p := range wd.ranks {
		wd.qs = append(wd.qs, NewP2Quantile(p))
	}
	wd.integ = Trapezoid{}
}

// snapshotCur summarizes the open bucket without disturbing its
// aggregator state.
func (wd *Windowed) snapshotCur() WindowSummary {
	s := WindowSummary{
		StartNS:         wd.originNS + wd.curIdx*wd.widthNS,
		N:               wd.mom.N(),
		NaNs:            wd.mom.NaNs(),
		Mean:            wd.mom.Mean(),
		Min:             wd.mom.Min(),
		Max:             wd.mom.Max(),
		IntegralSeconds: wd.integ.IntegralSeconds(),
	}
	if s.N == 0 {
		s.Mean, s.Min, s.Max = math.NaN(), math.NaN(), math.NaN()
	}
	for _, q := range wd.qs {
		s.Quantiles = append(s.Quantiles, q.Value())
	}
	return s
}

func (wd *Windowed) flush() {
	wd.done = append(wd.done, wd.snapshotCur())
	wd.started = false
}

// Buckets returns every non-empty bucket seen so far, in time order,
// including the one still open. The aggregator remains usable; calling
// Buckets again after more Adds re-reports the final bucket with the
// extra samples folded in. Empty buckets (time ranges with no samples)
// are simply absent — callers render gaps, not zeros.
func (wd *Windowed) Buckets() []WindowSummary {
	out := make([]WindowSummary, 0, len(wd.done)+1)
	out = append(out, wd.done...)
	if wd.started {
		out = append(out, wd.snapshotCur())
	}
	return out
}
