package monsoon

import (
	"math"
	"testing"
	"time"

	"batterylab/internal/power"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
)

func newMon(t *testing.T) (*Monsoon, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual()
	m := New(clk, "HV0001", 7)
	return m, clk
}

func constSource(ma float64) power.Source {
	return power.SourceFunc(func(time.Time) float64 { return ma })
}

func TestLiveSummaryMidRun(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(3.85)
	m.WireSource(constSource(160))
	if _, err := m.LiveSummary(); err != ErrNotSampling {
		t.Fatalf("LiveSummary before start = %v", err)
	}
	m.StartSampling(1000)
	clk.Advance(500 * time.Millisecond)
	mid, err := m.LiveSummary()
	if err != nil {
		t.Fatal(err)
	}
	if mid.N != 500 {
		t.Fatalf("mid-run N = %d, want 500", mid.N)
	}
	if math.Abs(mid.Mean-160) > 1 || mid.P95 < mid.P50 {
		t.Fatalf("mid-run summary implausible: %+v", mid)
	}
	// Sampling continues past the read; the final trace agrees with the
	// last live snapshot.
	clk.Advance(500 * time.Millisecond)
	end, err := m.LiveSummary()
	if err != nil {
		t.Fatal(err)
	}
	if end.N != 1000 || end.IntegralSeconds <= mid.IntegralSeconds {
		t.Fatalf("live summary stalled: %+v", end)
	}
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	if s.Live() != end {
		t.Fatal("final trace disagrees with last live snapshot")
	}
	if _, err := m.LiveSummary(); err != ErrNotSampling {
		t.Fatalf("LiveSummary after stop = %v", err)
	}
}

func TestRequiresMains(t *testing.T) {
	m, _ := newMon(t)
	if err := m.SetVout(3.85); err != ErrUnpowered {
		t.Fatalf("SetVout unpowered = %v", err)
	}
	if err := m.StartSampling(5000); err != ErrUnpowered {
		t.Fatalf("StartSampling unpowered = %v", err)
	}
}

func TestVoutEnvelope(t *testing.T) {
	m, _ := newMon(t)
	m.SetMains(true)
	if err := m.SetVout(0.5); err == nil {
		t.Fatal("0.5 V accepted")
	}
	if err := m.SetVout(14); err == nil {
		t.Fatal("14 V accepted")
	}
	if err := m.SetVout(3.85); err != nil {
		t.Fatal(err)
	}
	if m.Vout() != 3.85 {
		t.Fatalf("Vout = %v", m.Vout())
	}
	if err := m.SetVout(0); err != nil {
		t.Fatal("disabling Vout rejected")
	}
}

func TestStartSamplingPreconditions(t *testing.T) {
	m, _ := newMon(t)
	m.SetMains(true)
	if err := m.StartSampling(5000); err != ErrVoutOff {
		t.Fatalf("want ErrVoutOff, got %v", err)
	}
	m.SetVout(3.85)
	if err := m.StartSampling(5000); err != ErrNoSource {
		t.Fatalf("want ErrNoSource, got %v", err)
	}
	m.WireSource(constSource(100))
	if err := m.StartSampling(5000); err != nil {
		t.Fatal(err)
	}
	if err := m.StartSampling(5000); err != ErrBusy {
		t.Fatalf("want ErrBusy, got %v", err)
	}
}

func TestSamplingRateAndCount(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(3.85)
	m.WireSource(constSource(150))
	if err := m.StartSampling(1000); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2000 {
		t.Fatalf("samples = %d, want 2000", s.Len())
	}
	if m.Sampling() {
		t.Fatal("still sampling after stop")
	}
}

func TestSamplingAccuracy(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(3.85)
	m.WireSource(constSource(160))
	m.StartSampling(5000)
	clk.Advance(time.Second)
	s, _ := m.StopSampling()
	sum := s.Summary()
	if math.Abs(sum.Mean-160) > 0.5 {
		t.Fatalf("mean = %v, want ~160", sum.Mean)
	}
	if sum.Std == 0 {
		t.Fatal("ADC noise absent")
	}
	if sum.Std > 3 {
		t.Fatalf("ADC noise too large: std = %v", sum.Std)
	}
}

func TestRateClamp(t *testing.T) {
	m, _ := newMon(t)
	m.SetMains(true)
	m.SetVout(3.85)
	m.WireSource(constSource(1))
	m.StartSampling(50000)
	if m.SampleRate() != MaxSampleRate {
		t.Fatalf("rate = %d, want %d", m.SampleRate(), MaxSampleRate)
	}
	m.StopSampling()
	m.StartSampling(0)
	if m.SampleRate() != MaxSampleRate {
		t.Fatalf("rate = %d, want clamped default", m.SampleRate())
	}
}

func TestOvercurrentClamp(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(13.5)
	m.WireSource(constSource(9000))
	m.StartSampling(100)
	clk.Advance(time.Second)
	s, _ := m.StopSampling()
	if s.Summary().Max > MaxCurrentMA {
		t.Fatalf("max sample %v exceeds envelope", s.Summary().Max)
	}
	if m.OvercurrentEvents() == 0 {
		t.Fatal("overcurrent not counted")
	}
}

func TestMainsCutAbortsSampling(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(3.85)
	m.WireSource(constSource(100))
	m.StartSampling(100)
	clk.Advance(100 * time.Millisecond)
	m.SetMains(false)
	if m.Sampling() {
		t.Fatal("sampling survived mains cut")
	}
	if m.Vout() != 0 {
		t.Fatal("Vout survived mains cut")
	}
	if _, err := m.StopSampling(); err != ErrNotSampling {
		t.Fatalf("StopSampling after cut = %v", err)
	}
	// No stray samples after the cut.
	n := 0
	clk.Advance(time.Second)
	_ = n
}

func TestStopWithoutStart(t *testing.T) {
	m, _ := newMon(t)
	if _, err := m.StopSampling(); err != ErrNotSampling {
		t.Fatalf("got %v", err)
	}
}

func TestNoNegativeSamples(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(0.8)
	m.WireSource(constSource(0)) // relay open: reads ~0 plus noise
	m.StartSampling(1000)
	clk.Advance(time.Second)
	s, _ := m.StopSampling()
	if s.Summary().Min < 0 {
		t.Fatalf("negative sample: %v", s.Summary().Min)
	}
}

func TestSeriesTimestampsMonotonic(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	m.SetVout(3.85)
	m.WireSource(constSource(10))
	m.StartSampling(500)
	clk.Advance(time.Second)
	s, _ := m.StopSampling()
	for i := 1; i < s.Len(); i++ {
		if s.At(i).T.Before(s.At(i - 1).T) {
			t.Fatal("timestamps not monotonic")
		}
	}
	if s.MeanDt() != 2*time.Millisecond {
		t.Fatalf("meanDt = %v, want 2ms", s.MeanDt())
	}
}

// One steady-state sample — clock step, ticker re-arm, source read, ADC
// noise draw, trace append — allocates nothing. The sample store grows by
// one chunk every samples.ChunkLen appends; the warm-up starts a chunk and
// the measured steps stay inside it.
func TestSampleStepDoesNotAllocate(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	if err := m.SetVout(4.0); err != nil {
		t.Fatal(err)
	}
	rail := power.NewRail()
	for _, c := range []power.Component{power.NewConstant("soc", 120), power.NewConstant("screen", 80)} {
		if err := rail.Attach(c); err != nil {
			t.Fatal(err)
		}
	}
	m.WireSource(rail)
	if err := m.StartSampling(MaxSampleRate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.Step()
	}
	const steps = 1000
	if 10+steps+1 >= samples.ChunkLen {
		t.Fatal("measured steps would cross a chunk boundary")
	}
	if n := testing.AllocsPerRun(steps, func() { clk.Step() }); n != 0 {
		t.Fatalf("%v allocations per sample", n)
	}
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10+steps+1 { // AllocsPerRun runs the function once to warm up
		t.Fatalf("captured %d samples, want %d", s.Len(), 10+steps+1)
	}
}

// TestCaptureCost is a cost gate that counts work: on a virtual clock a
// 5 kHz capture costs a clock event per foreign deadline, not one per
// sample — the ticks between two foreign deadlines run inside one Step —
// and such a batch of samples allocates nothing.
func TestCaptureCost(t *testing.T) {
	start := func(t *testing.T, foreign time.Duration) (*Monsoon, *simclock.Virtual) {
		m, clk := newMon(t)
		m.SetMains(true)
		if err := m.SetVout(4.0); err != nil {
			t.Fatal(err)
		}
		m.WireSource(constSource(250))
		if err := m.StartSampling(MaxSampleRate); err != nil {
			t.Fatal(err)
		}
		tk := simclock.NewTicker(clk, foreign, func(time.Time) {})
		t.Cleanup(tk.Stop)
		return m, clk
	}

	t.Run("one Step per foreign deadline", func(t *testing.T) {
		m, clk := start(t, 100*time.Millisecond)
		end := clk.Now().Add(10 * time.Second)
		steps := 0
		for clk.Now().Before(end) && clk.Step() {
			steps++
		}
		clk.RunUntil(end) // the sample at end sorts after the foreign tick there
		s, err := m.StopSampling()
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 50000 {
			t.Fatalf("captured %d samples in 10 s at 5 kHz, want 50000", s.Len())
		}
		if steps > 3*100 {
			t.Fatalf("%d Steps for 100 foreign deadlines, want at most 300", steps)
		}
	})

	t.Run("a batch of samples allocates nothing", func(t *testing.T) {
		m, clk := start(t, 10*time.Millisecond) // 50 samples per batch
		clk.Step()                              // starts the first chunk
		const steps = 40
		if n := testing.AllocsPerRun(steps, func() { clk.Step() }); n != 0 {
			t.Fatalf("%v allocations per Step", n)
		}
		s, err := m.StopSampling()
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() < steps/2*50 || s.Len() >= samples.ChunkLen {
			t.Fatalf("captured %d samples: want batches of 50 inside one %d-sample chunk", s.Len(), samples.ChunkLen)
		}
	})
}
