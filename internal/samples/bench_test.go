package samples

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The benchmarks model the hot path the package exists for: a 5 kHz
// Monsoon capture feeding a chunked series and streaming aggregators,
// against the flat-slice + batch-rescan baseline it replaced.

const benchN = 1_000_000 // ~200 s of capture at 5 kHz, or 8 devices × 25 s

func synth(n int) ([]int64, []float64) {
	ts := make([]int64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 200_000
		vs[i] = 160 + 40*math.Sin(float64(i)/5000)
	}
	return ts, vs
}

func BenchmarkAppendChunked(b *testing.B) {
	ts, vs := synth(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSeries()
		for j := 0; j < benchN; j++ {
			s.Append(ts[j], vs[j])
		}
	}
	b.ReportMetric(float64(benchN), "samples/op")
}

func BenchmarkAppendFlatBaseline(b *testing.B) {
	// The pre-samples baseline: a []struct{T;V} growing geometrically.
	ts, vs := synth(benchN)
	type sample struct {
		T int64
		V float64
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var xs []sample
		for j := 0; j < benchN; j++ {
			xs = append(xs, sample{ts[j], vs[j]})
		}
		_ = xs
	}
}

func BenchmarkAppendStreaming(b *testing.B) {
	// Chunked append plus the full online aggregator set — the real
	// capture-path cost per sample.
	ts, vs := synth(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSeries()
		ss := NewStreamSummary(nil)
		for j := 0; j < benchN; j++ {
			s.Append(ts[j], vs[j])
			ss.Add(ts[j], vs[j])
		}
	}
}

// BenchmarkSummarizeStreaming vs BenchmarkSummarizeBatchBaseline is the
// acceptance-criteria pair: summarize-at-teardown on a 1M-sample series.
// Streaming reads a snapshot of folded moments, its quantiles off a
// recycled sorted copy (the values lie on no grid); the batch baseline
// re-scans the full trace and sorts a fresh copy.

func BenchmarkSummarizeStreaming(b *testing.B) {
	ts, vs := synth(benchN)
	ss := NewStreamSummary(nil)
	for j := 0; j < benchN; j++ {
		ss.Add(ts[j], vs[j])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := ss.Snapshot(vs)
		if snap.N != benchN {
			b.Fatal("bad snapshot")
		}
	}
}

func BenchmarkSummarizeBatchBaseline(b *testing.B) {
	_, vs := synth(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// stats.Summarize's shape: mean/min/max pass, variance pass,
		// then a sorted copy for the median.
		var mean, min, max float64
		min, max = vs[0], vs[0]
		var sum float64
		for _, x := range vs {
			sum += x
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		mean = sum / float64(len(vs))
		var m2 float64
		for _, x := range vs {
			d := x - mean
			m2 += d * d
		}
		sorted := make([]float64, len(vs))
		copy(sorted, vs)
		sort.Float64s(sorted)
		_ = sorted[len(sorted)/2]
		_ = m2
	}
}

func BenchmarkQuantileP2(b *testing.B) {
	_, vs := synth(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewP2Quantile(0.95)
		for _, x := range vs {
			e.Observe(x)
		}
		_ = e.Value()
	}
}

func BenchmarkQuantileSortBaseline(b *testing.B) {
	_, vs := synth(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sorted := make([]float64, len(vs))
		copy(sorted, vs)
		sort.Float64s(sorted)
		_ = QuantileSorted(sorted, 0.95)
	}
}

func BenchmarkIter(b *testing.B) {
	ts, vs := synth(benchN)
	s := NewSeries()
	for j := 0; j < benchN; j++ {
		s.Append(ts[j], vs[j])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		s.Iter(func(_ int64, v float64) bool {
			sum += v
			return true
		})
		if sum == 0 {
			b.Fatal("no samples")
		}
	}
}

// noisy returns n values shaped like a Monsoon current trace — a level
// with ADC noise — in capture order.
func noisy(n int) []float64 {
	r := rand.New(rand.NewSource(1))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Round((160+r.NormFloat64()*1.2)*10) / 10
	}
	return vs
}

// BenchmarkP2TwoEstimators folds chunks of capture-shaped values into a
// P50 and a P95 estimator: what a live summary's quantiles cost a sample
// before BenchmarkLevels counted them.
func BenchmarkP2TwoEstimators(b *testing.B) {
	vs := noisy(ChunkLen)
	p50, p95 := NewP2Quantile(0.5), NewP2Quantile(0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p50.ObserveRun(vs)
		p95.ObserveRun(vs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/sample")
}

// BenchmarkP2Observe folds one value per call, as metrics.Histogram does
// per observation.
func BenchmarkP2Observe(b *testing.B) {
	vs := noisy(ChunkLen)
	e := NewP2Quantile(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(vs[i%len(vs)])
	}
}

// BenchmarkLevels reports what a capture's exact P50 and P95 cost: the
// fold, counting chunks of the levels of capture-shaped values on the
// ADC's 0.1 mA grid into one Levels, in ns/sample; and the query, a walk
// of the counts of 33 s of 5 kHz capture spread over 120–780 mA (6 600
// levels) for both quantiles, in ns/op and in ns/sample of the values it answers for (a
// live view asks once a simulated second).
func BenchmarkLevels(b *testing.B) {
	ks := tenths(noisy(ChunkLen))
	b.Run("fold", func(b *testing.B) {
		l := NewLevels(10, 60000)
		b.ReportAllocs()
		for b.Loop() {
			if l.n > 1<<30 {
				l = NewLevels(10, 60000)
			}
			l.ObserveLevels(ks)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ks)), "ns/sample")
	})
	b.Run("query", func(b *testing.B) {
		l := NewLevels(10, 60000)
		col := noisy(167_499)
		for i, v := range col {
			col[i] = math.Round((v+290+330*math.Sin(float64(i)/3000))*10) / 10
		}
		l.ObserveLevels(tenths(col))
		q, ps := make([]float64, 2), []float64{0.5, 0.95}
		b.ReportAllocs()
		for b.Loop() {
			l.Quantiles(q, ps)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/sample")
	})
}
