// Package stats provides the summary statistics and empirical CDFs used
// throughout BatteryLab's evaluation: per-run energy summaries (Fig. 3,
// Fig. 6), current and CPU distribution CDFs (Fig. 2, 4, 5), and
// distribution comparisons used by the accuracy analysis.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"batterylab/internal/samples"
)

// Summary holds moment statistics over a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary. It returns a zero Summary for an empty
// input. The moments are computed with the streaming Welford aggregator
// from internal/samples (one pass instead of two); the median is exact,
// from a single sorted copy. NaN values are invalid measurements and
// are skipped entirely — excluded from N and every statistic — matching
// the streaming aggregators' contract.
func Summarize(xs []float64) Summary {
	var w samples.Welford
	vs := make([]float64, 0, len(xs))
	for _, x := range xs {
		w.Observe(x)
		if !math.IsNaN(x) {
			vs = append(vs, x)
		}
	}
	return summarizeValid(&w, vs)
}

// SummarizeSeries is Summarize over a chunked sample series, without
// materializing a flat value slice for the moments (the exact median
// still sorts one copy of the values).
func SummarizeSeries(s *samples.Series) Summary {
	var w samples.Welford
	vs := make([]float64, 0, s.Len())
	s.Iter(func(_ int64, v float64) bool {
		w.Observe(v)
		if !math.IsNaN(v) {
			vs = append(vs, v)
		}
		return true
	})
	return summarizeValid(&w, vs)
}

// summarizeValid assembles a Summary from the one-pass moments and the
// NaN-filtered values (sorted here, once, for the exact median).
func summarizeValid(w *samples.Welford, vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	sort.Float64s(vs)
	return Summary{
		N:      len(vs),
		Mean:   w.Mean(),
		Std:    w.Std(),
		Min:    w.Min(),
		Max:    w.Max(),
		Median: quantileSorted(vs, 0.5),
	}
}

// FromLive converts a streaming samples.LiveSummary into a Summary. The
// Median is the P² streaming estimate — exact for N ≤ 5, approximate
// beyond (see the internal/samples package comment for bounds).
func FromLive(ls samples.LiveSummary) Summary {
	if ls.N == 0 {
		return Summary{}
	}
	return Summary{
		N:      ls.N,
		Mean:   ls.Mean,
		Std:    ls.Std,
		Min:    ls.Min,
		Max:    ls.Max,
		Median: ls.P50,
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// quantileSorted delegates to the one shared interpolation convention
// in internal/samples, keeping batch and streaming small-n quantiles
// bit-identical.
func quantileSorted(sorted []float64, p float64) float64 {
	return samples.QuantileSorted(sorted, p)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDFSeries builds an empirical CDF from a chunked sample series,
// filling the sorted buffer straight from the chunks (one copy instead
// of Values()+copy).
func NewCDFSeries(s *samples.Series) (*CDF, error) {
	if s.Len() == 0 {
		return nil, errors.New("stats: empty sample")
	}
	sorted := make([]float64, 0, s.Len())
	s.Iter(func(_ int64, v float64) bool {
		sorted = append(sorted, v)
		return true
	})
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At reports the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile of the sample.
func (c *CDF) Quantile(p float64) float64 { return quantileSorted(c.sorted, p) }

// Median is shorthand for Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min and Max report the extreme samples.
func (c *CDF) Min() float64 { return c.sorted[0] }

// Max reports the largest sample.
func (c *CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// KSDistance computes the Kolmogorov–Smirnov statistic between two
// empirical CDFs: the supremum of |F1(x) - F2(x)| over the pooled sample
// points. It is the metric used to assert "negligible difference" between
// the direct and relay wirings in the accuracy evaluation.
func KSDistance(a, b *CDF) float64 {
	var max float64
	for _, xs := range [][]float64{a.sorted, b.sorted} {
		for _, x := range xs {
			d := math.Abs(a.At(x) - b.At(x))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for n < 2).
func Std(xs []float64) float64 {
	return Summarize(xs).Std
}
