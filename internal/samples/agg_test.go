package samples

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Batch references, reimplemented here (internal/stats imports this
// package, so these tests keep their own oracle). They mirror
// stats.Summarize and stats.Quantile exactly.

func batchMean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func batchStd(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := batchMean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

func batchQuantile(xs []float64, p float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, p)
}

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*math.Max(scale, 1)
}

// generators produce the adversarial input families the capture path
// sees: ADC-noised currents, constant series, zero floors (negative
// draws clamped at 0, as the Monsoon model does).
var generators = []struct {
	name string
	gen  func(r *rand.Rand, n int) []float64
}{
	{"uniform", func(r *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 500
		}
		return xs
	}},
	{"normal", func(r *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 160 + r.NormFloat64()*1.2
		}
		return xs
	}},
	{"bimodal", func(r *rand.Rand, n int) []float64 {
		// 25/75 mixture: idle draws around 20 mA, active around 400 mA.
		// The tested quantiles (p50, p95) land interior to the active
		// mode — a quantile sitting exactly on the probability gap of a
		// 50/50 mixture is ill-conditioned for any constant-memory
		// estimator (see the package comment).
		xs := make([]float64, n)
		for i := range xs {
			if r.Intn(4) == 0 {
				xs[i] = 20 + r.NormFloat64()
			} else {
				xs[i] = 400 + r.NormFloat64()*5
			}
		}
		return xs
	}},
	{"constant", func(_ *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 42.5
		}
		return xs
	}},
	{"zero-floor", func(r *rand.Rand, n int) []float64 {
		// The ADC clamp: gaussian noise around 0 with negatives
		// floored, the shape of an open-relay trace.
		xs := make([]float64, n)
		for i := range xs {
			x := r.NormFloat64() * 1.2
			if x < 0 {
				x = 0
			}
			xs[i] = x
		}
		return xs
	}},
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(2019))
	for _, g := range generators {
		for _, n := range []int{0, 1, 2, 5, 100, 10000} {
			xs := g.gen(r, n)
			var w Welford
			for _, x := range xs {
				w.Observe(x)
			}
			if int(w.N()) != n {
				t.Fatalf("%s n=%d: N = %d", g.name, n, w.N())
			}
			if n == 0 {
				continue
			}
			if !relClose(w.Mean(), batchMean(xs), 1e-9) {
				t.Fatalf("%s n=%d: mean %v vs batch %v", g.name, n, w.Mean(), batchMean(xs))
			}
			if !relClose(w.Std(), batchStd(xs), 1e-9) {
				t.Fatalf("%s n=%d: std %v vs batch %v", g.name, n, w.Std(), batchStd(xs))
			}
			smin, smax := xs[0], xs[0]
			for _, x := range xs {
				smin = math.Min(smin, x)
				smax = math.Max(smax, x)
			}
			if w.Min() != smin || w.Max() != smax {
				t.Fatalf("%s n=%d: min/max %v/%v vs %v/%v", g.name, n, w.Min(), w.Max(), smin, smax)
			}
		}
	}
}

func TestWelfordSkipsNaN(t *testing.T) {
	var w Welford
	w.Observe(1)
	w.Observe(math.NaN())
	w.Observe(3)
	if w.N() != 2 || w.NaNs() != 1 {
		t.Fatalf("N=%d NaNs=%d", w.N(), w.NaNs())
	}
	if w.Mean() != 2 {
		t.Fatalf("mean = %v", w.Mean())
	}
}

func TestP2ExactSmallN(t *testing.T) {
	// For n ≤ 5 the estimator must agree exactly with the batch
	// interpolated quantile — including single-sample and constant.
	cases := [][]float64{
		{7},
		{3, 1},
		{5, 5, 5},
		{0, 10, 20, 30},
		{9, 1, 5, 3, 7},
	}
	for _, xs := range cases {
		for _, p := range []float64{0.25, 0.5, 0.75, 0.95} {
			e := NewP2Quantile(p)
			for _, x := range xs {
				e.Observe(x)
			}
			want := batchQuantile(xs, p)
			if e.Value() != want {
				t.Fatalf("p=%v xs=%v: got %v, want %v", p, xs, e.Value(), want)
			}
		}
	}
}

func TestP2EmptyIsNaN(t *testing.T) {
	if !math.IsNaN(NewP2Quantile(0.5).Value()) {
		t.Fatal("empty P2 not NaN")
	}
}

// TestP2WithinDocumentedBound pins the accuracy bound the package doc
// promises: for n ≥ 1000, |est − exact| ≤ 0.05·(max−min) across the
// input families, and exact on constant series.
func TestP2WithinDocumentedBound(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, g := range generators {
		for _, p := range []float64{0.5, 0.95} {
			for _, n := range []int{1000, 20000} {
				xs := g.gen(r, n)
				e := NewP2Quantile(p)
				var lo, hi float64 = xs[0], xs[0]
				for _, x := range xs {
					e.Observe(x)
					lo = math.Min(lo, x)
					hi = math.Max(hi, x)
				}
				exact := batchQuantile(xs, p)
				bound := 0.05 * (hi - lo)
				if g.name == "constant" {
					bound = 0
				}
				if math.Abs(e.Value()-exact) > bound {
					t.Fatalf("%s p=%v n=%d: est %v exact %v (bound %v)",
						g.name, p, n, e.Value(), exact, bound)
				}
			}
		}
	}
}

func TestTrapezoidMatchesBatchLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ts := make([]int64, 5000)
	vs := make([]float64, 5000)
	for i := range ts {
		ts[i] = int64(i) * 200_000 // 5 kHz
		vs[i] = 100 + r.Float64()*50
	}
	var tr Trapezoid
	for i := range ts {
		tr.Add(ts[i], vs[i])
	}
	// The batch loop trace.Series used before this package existed.
	var want float64
	for i := 1; i < len(ts); i++ {
		dt := float64(ts[i]-ts[i-1]) / 1e9
		want += dt * (vs[i] + vs[i-1]) / 2
	}
	if tr.IntegralSeconds() != want {
		t.Fatalf("streaming %v != batch %v (must be bit-identical)", tr.IntegralSeconds(), want)
	}
}

func TestTrapezoidEdgeCases(t *testing.T) {
	var tr Trapezoid
	if tr.IntegralSeconds() != 0 {
		t.Fatal("empty integral nonzero")
	}
	tr.Add(0, 100)
	if tr.IntegralSeconds() != 0 {
		t.Fatal("single-sample integral nonzero")
	}
	tr.Add(1e9, 100)
	if tr.IntegralSeconds() != 100 {
		t.Fatalf("got %v, want 100", tr.IntegralSeconds())
	}
	// NaNs are skipped like every other aggregator: the integral
	// bridges the surrounding samples instead of poisoning the total.
	tr.Add(15e8, math.NaN())
	tr.Add(2e9, 100)
	if tr.IntegralSeconds() != 200 {
		t.Fatalf("after NaN: got %v, want 200", tr.IntegralSeconds())
	}
}

func TestStreamSummarySnapshot(t *testing.T) {
	ss := NewStreamSummary(NewLevels(1, 100))
	var vs []float64
	for i := 0; i < 1000; i++ {
		vs = append(vs, float64(i%100))
		ss.AddLevelRun([]int64{int64(i) * 1e6}, vs[i:i+1], []uint32{uint32(i % 100)})
	}
	snap := ss.Snapshot()
	if snap.N != 1000 {
		t.Fatalf("N = %d", snap.N)
	}
	if snap.Min != 0 || snap.Max != 99 {
		t.Fatalf("min/max = %v/%v", snap.Min, snap.Max)
	}
	if !relClose(snap.Mean, 49.5, 1e-9) {
		t.Fatalf("mean = %v", snap.Mean)
	}
	sort.Float64s(vs)
	if snap.P50 != QuantileSorted(vs, 0.5) || snap.P95 != QuantileSorted(vs, 0.95) {
		t.Fatalf("p50, p95 = %v, %v; want %v, %v", snap.P50, snap.P95, QuantileSorted(vs, 0.5), QuantileSorted(vs, 0.95))
	}
	// With no levels, the same quantiles are read off a sorted copy.
	sel := NewStreamSummary(nil)
	sel.AddRun(make([]int64, len(vs)), vs)
	if got := sel.Snapshot(vs); got.P50 != snap.P50 || got.P95 != snap.P95 {
		t.Fatalf("sorted p50, p95 = %v, %v; counted %v, %v", got.P50, got.P95, snap.P50, snap.P95)
	}
	if snap.IntegralSeconds <= 0 {
		t.Fatal("integral not accumulated")
	}
}

func TestStreamSummaryNaNPolicy(t *testing.T) {
	ss := NewStreamSummary(nil) // NaN is no level of a grid
	vs := []float64{10, math.NaN(), 20}
	for i, v := range vs {
		ss.Add(int64(i)*1e9, v)
	}
	snap := ss.Snapshot(vs)
	if snap.N != 2 || snap.NaNs != 1 {
		t.Fatalf("N=%d NaNs=%d", snap.N, snap.NaNs)
	}
	if math.IsNaN(snap.Mean) || math.IsNaN(snap.P50) || math.IsNaN(snap.IntegralSeconds) {
		t.Fatal("NaN leaked into aggregates")
	}
	// The NaN sample is excluded from the integral entirely: the
	// trapezoid spans 10→20 over the full 2 s window.
	if snap.IntegralSeconds != 30 {
		t.Fatalf("integral = %v, want 30", snap.IntegralSeconds)
	}
}

func TestStreamSummaryEmpty(t *testing.T) {
	for _, ss := range []*StreamSummary{NewStreamSummary(NewLevels(10, 1000)), NewStreamSummary(nil)} {
		snap := ss.Snapshot()
		if snap.N != 0 || snap.Mean != 0 || snap.Std != 0 {
			t.Fatalf("empty snapshot: %+v", snap)
		}
		if !math.IsNaN(snap.P50) || !math.IsNaN(snap.P95) {
			t.Fatal("empty quantiles not NaN")
		}
	}
}
