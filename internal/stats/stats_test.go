package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"batterylab/internal/samples"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", q)
	}
	if q := Quantile(xs, 0.25); q != 2.5 {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{5, 1, 9}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 9 {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestCDFAt(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("NewCDF(nil) succeeded")
	}
}

func TestCDFQuantileMonotonic(t *testing.T) {
	c, _ := NewCDF([]float64{5, 3, 8, 1, 9, 2, 7})
	if err := quick.Check(func(a, b float64) bool {
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return c.Quantile(pa) <= c.Quantile(pb)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAtMonotonicProperty(t *testing.T) {
	c, _ := NewCDF([]float64{1, 4, 4, 6, 10})
	if err := quick.Check(func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c, _ := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 10 {
		t.Fatalf("endpoints wrong: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].F < pts[i-1].F || pts[i].X < pts[i-1].X {
			t.Fatalf("points not monotonic: %+v", pts)
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Fatalf("final F = %v, want 1", pts[len(pts)-1].F)
	}
}

func TestKSDistanceIdentical(t *testing.T) {
	a, _ := NewCDF([]float64{1, 2, 3})
	b, _ := NewCDF([]float64{1, 2, 3})
	if d := KSDistance(a, b); d != 0 {
		t.Fatalf("KS of identical = %v", d)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	a, _ := NewCDF([]float64{1, 2, 3})
	b, _ := NewCDF([]float64{10, 20, 30})
	if d := KSDistance(a, b); d != 1 {
		t.Fatalf("KS of disjoint = %v, want 1", d)
	}
}

func TestKSDistanceSymmetric(t *testing.T) {
	a, _ := NewCDF([]float64{1, 5, 9, 12})
	b, _ := NewCDF([]float64{2, 4, 8, 20, 30})
	if KSDistance(a, b) != KSDistance(b, a) {
		t.Fatal("KS not symmetric")
	}
}

func TestMeanStd(t *testing.T) {
	if m := Mean([]float64{2, 4}); m != 3 {
		t.Fatalf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
	if s := Std([]float64{1, 1, 1}); s != 0 {
		t.Fatalf("Std of constant = %v", s)
	}
}

func TestSummarizeSkipsNaN(t *testing.T) {
	// NaNs are invalid measurements: excluded from N and every
	// statistic, consistently with the streaming aggregators.
	got := Summarize([]float64{math.NaN(), 1, 2, 3})
	want := Summarize([]float64{1, 2, 3})
	if got != want {
		t.Fatalf("with NaN %+v, without %+v", got, want)
	}
	if got.N != 3 || got.Median != 2 {
		t.Fatalf("summary = %+v", got)
	}
	if (Summarize([]float64{math.NaN()}) != Summary{}) {
		t.Fatal("all-NaN input not zero Summary")
	}
	// SummarizeSeries shares the contract.
	s := samples.NewSeries()
	for i, x := range []float64{math.NaN(), 1, 2, 3} {
		s.Append(int64(i), x)
	}
	if SummarizeSeries(s) != want {
		t.Fatalf("SummarizeSeries with NaN = %+v, want %+v", SummarizeSeries(s), want)
	}
}

func TestSortedMatchesQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8}
	s := NewSorted(xs)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		if got, want := s.Quantile(p), Quantile(xs, p); got != want {
			t.Fatalf("Sorted.Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if s.Median() != Quantile(xs, 0.5) {
		t.Fatal("Median disagrees")
	}
	if s.N() != len(xs) {
		t.Fatalf("N = %d", s.N())
	}
}

func TestSortedEmpty(t *testing.T) {
	s := NewSorted(nil)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty Sorted quantile not NaN")
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	NewSorted(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("NewSorted mutated input")
	}
}

func TestQuantilesOneSort(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2, 7}
	qs := Quantiles(xs, 0.25, 0.5, 0.75)
	for i, p := range []float64{0.25, 0.5, 0.75} {
		if qs[i] != Quantile(xs, p) {
			t.Fatalf("Quantiles[%d] = %v, want %v", i, qs[i], Quantile(xs, p))
		}
	}
}

func TestSummarizeSeriesMatchesBatch(t *testing.T) {
	s := samples.NewSeries()
	xs := []float64{4, 8, 15, 16, 23, 42}
	for i, x := range xs {
		s.Append(int64(i)*1e6, x)
	}
	got, want := SummarizeSeries(s), Summarize(xs)
	if got != want {
		t.Fatalf("SummarizeSeries = %+v, want %+v", got, want)
	}
	if (SummarizeSeries(samples.NewSeries()) != Summary{}) {
		t.Fatal("empty series summary not zero")
	}
}

func TestNewCDFSeries(t *testing.T) {
	s := samples.NewSeries()
	for i, x := range []float64{3, 1, 2, 4} {
		s.Append(int64(i), x)
	}
	c, err := NewCDFSeries(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewCDF([]float64{3, 1, 2, 4})
	if c.Median() != ref.Median() || c.Min() != ref.Min() || c.Max() != ref.Max() {
		t.Fatal("series CDF disagrees with slice CDF")
	}
	if _, err := NewCDFSeries(samples.NewSeries()); err == nil {
		t.Fatal("empty series CDF succeeded")
	}
}

func TestFromLiveAgreesWithSummarize(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	ss := samples.NewStreamSummary(nil)
	for i, x := range xs {
		ss.AddRun([]int64{int64(i) * 1e9}, []float64{x})
	}
	got, want := FromLive(ss.Snapshot(xs)), Summarize(xs)
	if got.N != want.N || !almostEqual(got.Mean, want.Mean, 1e-9) ||
		!almostEqual(got.Std, want.Std, 1e-9) || got.Min != want.Min ||
		got.Max != want.Max || got.Median != want.Median {
		t.Fatalf("FromLive = %+v, want %+v", got, want)
	}
	if (FromLive(samples.LiveSummary{}) != Summary{}) {
		t.Fatal("empty live summary not zero")
	}
}

func TestMedianQuantileAgreement(t *testing.T) {
	c, _ := NewCDF([]float64{9, 1, 5})
	if c.Median() != 5 {
		t.Fatalf("median = %v", c.Median())
	}
	if c.Min() != 1 || c.Max() != 9 {
		t.Fatal("min/max wrong")
	}
}

// Sorted, Quantiles, NewCDF and Points are the reference forms the tests
// hold the package's production paths to (Quantile, NewCDFSeries).

// Sorted is a sample sorted once, for reading many exact quantiles
// without re-sorting per call.
type Sorted struct {
	xs []float64
}

// NewSorted copies and sorts the sample once. An empty input is allowed;
// its quantiles are NaN.
func NewSorted(xs []float64) Sorted {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Sorted{xs: sorted}
}

// N reports the sample size.
func (s Sorted) N() int { return len(s.xs) }

// Quantile returns the exact p-quantile in O(1).
func (s Sorted) Quantile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return quantileSorted(s.xs, p)
}

// Median is shorthand for Quantile(0.5).
func (s Sorted) Median() float64 { return s.Quantile(0.5) }

// Quantiles computes several quantiles of xs with a single sort — use
// this instead of repeated Quantile calls on the same slice.
func Quantiles(xs []float64, ps ...float64) []float64 {
	s := NewSorted(xs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.Quantile(p)
	}
	return out
}

// NewCDF builds an empirical CDF. The input is copied.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// Points returns up to n evenly spaced (x, F(x)) pairs for plotting a CDF
// series like the paper's figures.
func (c *CDF) Points(n int) []Point {
	if n < 2 {
		n = 2
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / (n - 1)
		pts = append(pts, Point{
			X: c.sorted[idx],
			F: float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// Point is one (value, cumulative fraction) sample of a CDF curve.
type Point struct {
	X float64
	F float64
}
