package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"batterylab/internal/samples"
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

// A run appended at once stores what appending its samples one by one
// stores, summary bits included, and is checked for order once.
func TestAppendRunMatchesAppend(t *testing.T) {
	const step = 200 * time.Microsecond
	rng := rand.New(rand.NewSource(3))
	one, run := NewSeries("current", "mA"), NewSeries("current", "mA")
	at := t0.Add(7 * time.Millisecond)
	for _, n := range []int{1, 5, samples.ChunkLen - 6, 1, 3 * samples.ChunkLen, 0, 17} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(int64(rng.Float64()*3000)) / 10
			one.MustAppend(at.Add(time.Duration(i)*step), vs[i])
		}
		if err := run.AppendRun(at, step, vs); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Duration(n) * step)
	}
	if one.Len() != run.Len() || one.Live() != run.Live() || one.Duration() != run.Duration() {
		t.Fatalf("run-appended %d samples, %+v; one by one %d, %+v", run.Len(), run.Live(), one.Len(), one.Live())
	}
	for i := range one.Len() {
		if a, b := one.At(i), run.At(i); !a.T.Equal(b.T) || a.V != b.V {
			t.Fatalf("sample %d: %v run-appended, %v one by one", i, run.At(i), one.At(i))
		}
	}
	if err := run.AppendRun(at.Add(-step-1), step, []float64{1}); err == nil {
		t.Fatal("a run starting before the last sample was accepted")
	}
	if err := run.AppendRun(at, -step, []float64{1, 2}); err == nil {
		t.Fatal("a run with a negative step was accepted")
	}
	if run.Len() != one.Len() {
		t.Fatalf("a rejected run stored samples: %d, want %d", run.Len(), one.Len())
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

// TestCDFSkipsNaN: the CDF leaves NaN out, as the summary does, so the
// two agree on a series with invalid samples, and a series of nothing
// else is an empty sample.
func TestCDFSkipsNaN(t *testing.T) {
	s := mk(math.NaN(), math.NaN(), 100, 200, 300)
	cdf, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Min() != 100 || cdf.Median() != 200 || cdf.At(150) != 1.0/3 {
		t.Fatalf("CDF min %v, median %v, at 150 %v; want 100, 200, 1/3", cdf.Min(), cdf.Median(), cdf.At(150))
	}
	if sum := s.Summary(); cdf.Median() != sum.Median || sum.N != 3 {
		t.Fatalf("CDF median %v, summary %+v", cdf.Median(), sum)
	}
	if _, err := mk(math.NaN(), math.NaN()).CDF(); err == nil {
		t.Fatal("an all-NaN series has a CDF")
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

// TestSummaryMedianIsExact: a series larger than a chunk, summarized
// from its live summary, has the exact CDF median, as a small one does.
func TestSummaryMedianIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewSeries("current", "mA")
	for i := 0; i < 10000; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*200*time.Microsecond), rng.Float64()*500)
	}
	cdf, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Summary(); got.Median != cdf.Median() || got.Min != cdf.Min() || got.Max != cdf.Max() {
		t.Fatalf("summary median, min, max %v, %v, %v; CDF's %v, %v, %v", got.Median, got.Min, got.Max, cdf.Median(), cdf.Min(), cdf.Max())
	}
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

// FuzzSeriesSummary checks the lazy summary: a Series folds its moments,
// integral and, on a grid, level counts when Live, Summary,
// IntegralSeconds or EnergyMAH is read, so at every read point it must
// equal, bit for bit, a batch summary of the same values: the moments and
// integral of a samples.StreamSummary fed at every append, and P50 and
// P95 stats.Quantile's (a zero's sign aside, which a sort leaves as it
// met it) — and Summary what those give, which is, a zero median's sign
// aside, stats.SummarizeSeries' batch summary too. Half the inputs start
// on a grid series, fed the levels of the values on its grid, which
// refuses the others (NaN, negatives), as floats, storing nothing, and a
// decode carries on with a series on the same grid. Each input byte is
// one step: a Live read,
// a Summary read, an IntegralSeconds and EnergyMAH read, a NaN, a burst
// of bulk values that crosses chunks, values up to the next chunk
// boundary (where a fold resumes in a new chunk), a round trip through
// the binary format that carries on with the decoded series (which has
// folded nothing), or a value built from the byte and the next.
func FuzzSeriesSummary(f *testing.F) {
	f.Add([]byte{0, 9, 40, 1, 2, 77, 3, 0, 120, 5, 1}, uint16(5000))
	f.Add([]byte{3, 0, 3, 1, 8, 8, 0, 3, 2, 1}, uint16(2100))
	f.Add([]byte{1, 0}, uint16(0))
	f.Add([]byte{5, 1, 4, 0, 5, 9, 4, 1, 5, 2}, uint16(0))
	f.Add([]byte{3, 6, 5, 3, 15, 2, 16, 0, 4, 6, 3, 0, 25, 1}, uint16(5000))
	f.Fuzz(func(t *testing.T, steps []byte, bulk uint16) {
		const maxLen = 4 * samples.ChunkLen
		s := NewSeries("current", "mA")
		if bulk&1 == 0 {
			s = NewGridSeries("current", "mA", 10, 32767)
		}
		eager := samples.NewStreamSummary(nil)
		var vals []float64
		add := func(v float64) {
			if s.Len() >= maxLen {
				return
			}
			off := int64(s.Len()) * 200_000 // 5 kHz
			at := t0.Add(time.Duration(off))
			if scale, max := s.Grid(); scale == 0 {
				s.MustAppend(at, v)
			} else if k, ok := levelOf(v, scale, max); !ok {
				if err := s.Append(at, v); err == nil || s.Len() != int(off/200_000) {
					t.Fatalf("a grid series took %v (%v)", v, err)
				}
				return
			} else if err := s.AppendLevels(at, 0, []uint32{k}); err != nil {
				t.Fatal(err)
			}
			eager.AddRun([]int64{off}, []float64{v})
			vals = append(vals, v)
		}
		// batch is the eager moments and integral with stats.Quantile's
		// P50 and P95, where they are not a zero of either sign.
		batch := func() samples.LiveSummary {
			want := eager.Snapshot(vals)
			var valid []float64
			for _, v := range vals {
				if v == v {
					valid = append(valid, v)
				}
			}
			if q := stats.Quantile(valid, 0.5); q != 0 || want.P50 != 0 {
				want.P50 = q
			}
			if q := stats.Quantile(valid, 0.95); q != 0 || want.P95 != 0 {
				want.P95 = q
			}
			return want
		}
		checkLive := func() {
			if got, want := s.Live(), batch(); !sameBits(got, want) {
				t.Fatalf("after %d samples: Live %+v, batch %+v", s.Len(), got, want)
			}
		}
		checkIntegral := func() {
			want := eager.IntegralSeconds()
			if got := s.IntegralSeconds(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %d samples: IntegralSeconds %v, eager %v", s.Len(), got, want)
			}
			if got := s.EnergyMAH(); math.Float64bits(got) != math.Float64bits(want/3600) {
				t.Fatalf("after %d samples: EnergyMAH %v, eager %v", s.Len(), got, want/3600)
			}
		}
		decode := func() {
			var buf bytes.Buffer
			if err := s.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := DecodeBinary(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if d.folded != 0 {
				t.Fatalf("decoding %d samples folded %d", d.Len(), d.folded)
			}
			s = d
		}
		checkSummary := func() {
			got := s.Summary()
			if want := stats.FromLive(batch()); !sameBits(got, want) {
				t.Fatalf("after %d samples: Summary %+v, want %+v", s.Len(), got, want)
			}
			// The batch summary's too, but for the sign of a zero median,
			// which its sort leaves as it met the zeros.
			want := stats.SummarizeSeries(s.Samples())
			if got.Median == 0 && want.Median == 0 {
				want.Median = got.Median
			}
			if !sameBits(got, want) {
				t.Fatalf("after %d samples: Summary %+v, batch %+v", s.Len(), got, want)
			}
		}
		for i := 0; i < len(steps); i++ {
			b := steps[i]
			switch b % 10 {
			case 0:
				checkLive()
			case 1:
				checkSummary()
			case 2:
				add(math.NaN())
			case 3, 4:
				rng := rand.New(rand.NewSource(int64(b)))
				n := int(bulk) % (2 * samples.ChunkLen)
				if b%10 == 4 {
					n = samples.ChunkLen - s.Len()%samples.ChunkLen
				}
				for j := 0; j < n; j++ {
					add(math.Round(rng.NormFloat64()*400+300) / 10)
				}
			case 5:
				checkIntegral()
			case 6:
				decode()
			default:
				var next byte
				if i+1 < len(steps) {
					i++
					next = steps[i]
				}
				add(float64(int16(uint16(b)<<8|uint16(next))) / 10)
			}
		}
		checkIntegral()
		checkLive()
		checkSummary()
	})
}

// sameBits reports whether two structs of ints and floats are equal field
// by field, floats compared by their bits (so NaN equals NaN and 0 is not
// -0).
func sameBits(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i), vb.Field(i)
		switch x.Kind() {
		case reflect.Float64:
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		default:
			if x.Int() != y.Int() {
				return false
			}
		}
	}
	return true
}
