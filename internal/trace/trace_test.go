package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"batterylab/internal/stats"
)

var t0 = time.Date(2019, 11, 13, 9, 0, 0, 0, time.UTC)

func mk(vals ...float64) *Series {
	s := NewSeries("current", "mA")
	for i, v := range vals {
		s.MustAppend(t0.Add(time.Duration(i)*time.Second), v)
	}
	return s
}

func TestAppendOrdering(t *testing.T) {
	s := NewSeries("x", "u")
	if err := s.Append(t0.Add(time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0, 2); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	// Equal timestamps are allowed (burst sampling).
	if err := s.Append(t0.Add(time.Second), 3); err != nil {
		t.Fatal(err)
	}
}

func TestIntegralConstant(t *testing.T) {
	s := mk(100, 100, 100, 100, 100) // 4 s at 100 mA
	if got := s.IntegralSeconds(); got != 400 {
		t.Fatalf("integral = %v, want 400", got)
	}
}

func TestIntegralTrapezoid(t *testing.T) {
	s := mk(0, 100) // ramp over 1 s
	if got := s.IntegralSeconds(); got != 50 {
		t.Fatalf("integral = %v, want 50", got)
	}
}

func TestEnergyMAH(t *testing.T) {
	// 3600 s at 200 mA = 200 mAh.
	s := NewSeries("current", "mA")
	s.MustAppend(t0, 200)
	s.MustAppend(t0.Add(time.Hour), 200)
	if got := s.EnergyMAH(); math.Abs(got-200) > 1e-9 {
		t.Fatalf("energy = %v mAh, want 200", got)
	}
}

func TestDurationAndMeanDt(t *testing.T) {
	s := mk(1, 2, 3)
	if s.Duration() != 2*time.Second {
		t.Fatalf("duration = %v", s.Duration())
	}
	if s.MeanDt() != time.Second {
		t.Fatalf("meanDt = %v", s.MeanDt())
	}
}

func TestDecimate(t *testing.T) {
	s := mk(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	d := s.Decimate(3)
	want := []float64{0, 3, 6, 9}
	if d.Len() != len(want) {
		t.Fatalf("decimated len = %d", d.Len())
	}
	for i, w := range want {
		if d.At(i).V != w {
			t.Fatalf("decimated[%d] = %v, want %v", i, d.At(i).V, w)
		}
	}
}

func TestDecimateKBelowOne(t *testing.T) {
	s := mk(1, 2, 3)
	if d := s.Decimate(0); d.Len() != 3 {
		t.Fatalf("Decimate(0) len = %d", d.Len())
	}
}

func TestWindow(t *testing.T) {
	s := mk(0, 1, 2, 3, 4)
	w := s.Window(t0.Add(time.Second), t0.Add(3*time.Second))
	if w.Len() != 2 || w.At(0).V != 1 || w.At(1).V != 2 {
		t.Fatalf("window wrong: len=%d", w.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := mk(10.5, 20.25, 30.125)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "current", "mA", t0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip len = %d, want %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got.At(i).V != s.At(i).V {
			t.Fatalf("sample %d = %v, want %v", i, got.At(i).V, s.At(i).V)
		}
		if !got.At(i).T.Equal(s.At(i).T) {
			t.Fatalf("timestamp %d = %v, want %v", i, got.At(i).T, s.At(i).T)
		}
	}
}

func TestCSVEmptySeries(t *testing.T) {
	s := NewSeries("current", "mA")
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "current", "mA", t0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("expected empty, got %d", got.Len())
	}
}

func TestSummaryAndCDF(t *testing.T) {
	s := mk(1, 2, 3, 4)
	sum := s.Summary()
	if sum.N != 4 || sum.Mean != 2.5 {
		t.Fatalf("summary = %+v", sum)
	}
	cdf, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Median() != 2.5 {
		t.Fatalf("median = %v", cdf.Median())
	}
}

func TestIntegralNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		s := NewSeries("x", "u")
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.MustAppend(t0.Add(time.Duration(i)*time.Millisecond), math.Abs(v))
		}
		return s.IntegralSeconds() >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValuesCopy(t *testing.T) {
	s := mk(1, 2)
	vs := s.Values()
	vs[0] = 99
	if s.At(0).V != 1 {
		t.Fatal("Values() returned aliasing slice")
	}
}

// TestStreamingSummaryMatchesBatch pins the tentpole contract: the O(1)
// streaming Summary agrees with the batch stats.Summarize re-scan —
// mean/std exact to 1e-9 relative, min/max exact — on random inputs and
// the adversarial shapes of the capture path (empty, single sample,
// constant series, zero-floored ADC values).
func TestStreamingSummaryMatchesBatch(t *testing.T) {
	relClose := func(a, b float64) bool {
		if a == b {
			return true
		}
		scale := math.Max(math.Abs(a), math.Abs(b))
		return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
	}
	check := func(name string, vals []float64) {
		t.Helper()
		s := NewSeries("x", "u")
		for i, v := range vals {
			s.MustAppend(t0.Add(time.Duration(i)*200*time.Microsecond), v)
		}
		got := s.Summary()
		want := stats.Summarize(vals)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("%s: streaming %+v vs batch %+v", name, got, want)
		}
		if !relClose(got.Mean, want.Mean) || !relClose(got.Std, want.Std) {
			t.Fatalf("%s: moments drifted: streaming %+v vs batch %+v", name, got, want)
		}
		// Batch oracles for the other streaming aggregates.
		if want.N > 0 {
			var integral float64
			for i := 1; i < s.Len(); i++ {
				dt := s.At(i).T.Sub(s.At(i - 1).T).Seconds()
				integral += dt * (s.At(i).V + s.At(i-1).V) / 2
			}
			if s.IntegralSeconds() != integral {
				t.Fatalf("%s: integral %v, batch %v", name, s.IntegralSeconds(), integral)
			}
		}
	}
	check("empty", nil)
	check("single", []float64{42})
	check("constant", []float64{7, 7, 7, 7, 7, 7})
	rng := rand.New(rand.NewSource(13))
	long := make([]float64, 20000)
	for i := range long {
		long[i] = 160 + rng.NormFloat64()*1.2
	}
	check("gaussian", long)
	floored := make([]float64, 5000)
	for i := range floored {
		if x := rng.NormFloat64() * 1.2; x > 0 {
			floored[i] = x
		}
	}
	check("zero-floor", floored)
}

// TestStreamingMedianWithinP2Bounds pins the documented accuracy of the
// streaming Summary's Median against the exact CDF median.
func TestStreamingMedianWithinP2Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewSeries("current", "mA")
	for i := 0; i < 10000; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*200*time.Microsecond), rng.Float64()*500)
	}
	cdf, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	exact := cdf.Median()
	bound := 0.05 * (cdf.Max() - cdf.Min())
	if got := s.Summary().Median; math.Abs(got-exact) > bound {
		t.Fatalf("streaming median %v vs exact %v (bound %v)", got, exact, bound)
	}
	// Small series are exact (P² holds the first 5 samples verbatim).
	small := mk(9, 1, 5)
	if small.Summary().Median != 5 {
		t.Fatalf("small-series median = %v, want exact 5", small.Summary().Median)
	}
}

func TestLiveSummaryMidCapture(t *testing.T) {
	s := NewSeries("current", "mA")
	if s.Live().N != 0 {
		t.Fatal("empty live summary")
	}
	for i := 0; i < 100; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*time.Second), 100)
	}
	mid := s.Live()
	if mid.N != 100 || mid.Mean != 100 || mid.P95 != 100 {
		t.Fatalf("live mid-capture: %+v", mid)
	}
	// Capture continues after the read; aggregates keep flowing.
	for i := 100; i < 200; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*time.Second), 200)
	}
	end := s.Live()
	if end.N != 200 || end.Max != 200 || end.Mean <= mid.Mean {
		t.Fatalf("live after more capture: %+v", end)
	}
	if end.IntegralSeconds <= mid.IntegralSeconds {
		t.Fatal("integral did not advance")
	}
}

func TestIterMatchesAt(t *testing.T) {
	s := mk(5, 6, 7, 8)
	i := 0
	s.Iter(func(smp Sample) bool {
		if !smp.T.Equal(s.At(i).T) || smp.V != s.At(i).V {
			t.Fatalf("Iter[%d] = %+v, want %+v", i, smp, s.At(i))
		}
		i++
		return i < 3 // early stop
	})
	if i != 3 {
		t.Fatalf("Iter visited %d", i)
	}
}

// Values returns a copy of the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, 0, s.Len())
	s.Iter(func(smp Sample) bool { out = append(out, smp.V); return true })
	return out
}

// Decimate returns a new series keeping every k-th sample, used to thin a
// 5 kHz monitor trace before plotting. k < 1 is treated as 1.
func (s *Series) Decimate(k int) *Series {
	if k < 1 {
		k = 1
	}
	out := NewSeries(s.name, s.unit)
	for i := 0; i < s.data.Len(); i += k {
		smp := s.At(i)
		out.MustAppend(smp.T, smp.V)
	}
	return out
}
