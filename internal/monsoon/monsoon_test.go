package monsoon

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/gpio"
	"batterylab/internal/power"
	"batterylab/internal/relay"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
	"batterylab/internal/stats"
	"batterylab/internal/trace"
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
// and such a batch of samples allocates nothing, also when the input is a
// real device's rail read the way a vantage point wires it.
func TestCaptureCost(t *testing.T) {
	start := func(t *testing.T, foreign time.Duration, src func(simclock.Clock) power.Source) (*Monsoon, *simclock.Virtual) {
		m, clk := newMon(t)
		m.SetMains(true)
		if err := m.SetVout(4.0); err != nil {
			t.Fatal(err)
		}
		m.WireSource(src(clk))
		if err := m.StartSampling(MaxSampleRate); err != nil {
			t.Fatal(err)
		}
		tk := simclock.NewTicker(clk, foreign, func(time.Time) {})
		t.Cleanup(tk.Stop)
		return m, clk
	}

	constant := func(simclock.Clock) power.Source { return constSource(250) }

	t.Run("one Step per foreign deadline", func(t *testing.T) {
		m, clk := start(t, 100*time.Millisecond, constant)
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

	// A device's noise is a memo per epoch (50 ms of supply ripple, 100 ms
	// of process load), and filling it allocates: its batches stay inside
	// one ripple epoch — the clock starts on an epoch boundary, and 1 + 40
	// batches of 1 ms end before the next.
	bypassed := func(clk simclock.Clock) power.Source {
		dev, err := device.New(clk, device.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		dev.SetRelayPosition(false) // bypass: the monitor sees the rail
		dev.CPU().StartProcess("load").SetLoad(35, 6)
		return dev.MonitorVisibleSource()
	}
	const rippleEpoch = 50 * time.Millisecond
	t.Run("a batch of samples allocates nothing", func(t *testing.T) {
		for _, in := range []struct {
			name    string
			src     func(simclock.Clock) power.Source
			foreign time.Duration // a batch is foreign × 5 kHz samples
			within  time.Duration // the batches end inside this span, if set
		}{
			{"constant", constant, 10 * time.Millisecond, 0},
			{"device", bypassed, time.Millisecond, rippleEpoch},
		} {
			t.Run(in.name, func(t *testing.T) {
				m, clk := start(t, in.foreign, in.src)
				if in.within > 0 && clk.Now().UnixNano()%int64(in.within) != 0 {
					t.Fatalf("clock does not start on a %v boundary", in.within)
				}
				end := clk.Now().Add(in.within)
				clk.Step() // starts the first chunk and fills the epoch's memos
				const steps = 40
				if n := testing.AllocsPerRun(steps, func() { clk.Step() }); n != 0 {
					t.Fatalf("%v allocations per Step", n)
				}
				if in.within > 0 && !clk.Now().Before(end) {
					t.Fatalf("batches ran to %v, past %v", clk.Now(), end)
				}
				s, err := m.StopSampling()
				if err != nil {
					t.Fatal(err)
				}
				perBatch := int(in.foreign / (time.Second / MaxSampleRate))
				if s.Len() < steps/2*perBatch || s.Len() >= samples.ChunkLen {
					t.Fatalf("captured %d samples: want batches of %d inside one %d-sample chunk", s.Len(), perBatch, samples.ChunkLen)
				}
				if s.Summary().Min <= 0 {
					t.Fatalf("captured a %v mA sample: want a drawing source", s.Summary().Min)
				}
			})
		}
	})
}

// TestLiveQuantilesAreExact: at every live read of a 5 kHz capture of a
// device whose load moves through phases — read by a 1 s ticker, as a
// session's live tick reads it, and by a 0.7 s one that falls inside the
// runs — P50 and P95 are stats.Quantile of the samples captured so far,
// bit for bit.
func TestLiveQuantilesAreExact(t *testing.T) {
	clk := simclock.NewVirtual()
	dev, err := device.New(clk, device.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetRelayPosition(false) // bypass: the monitor sees the rail
	load := dev.CPU().StartProcess("load")
	m := New(clk, "HV0001", 7)
	m.SetMains(true)
	if err := m.SetVout(4.0); err != nil {
		t.Fatal(err)
	}
	m.WireSource(dev.MonitorVisibleSource())
	if err := m.StartSampling(MaxSampleRate); err != nil {
		t.Fatal(err)
	}
	var reads []samples.LiveSummary
	read := func(time.Time) {
		live, err := m.LiveSummary()
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, live)
	}
	phase := 0
	ticks := []*simclock.Ticker{
		simclock.NewTicker(clk, time.Second, read),
		simclock.NewTicker(clk, 700*time.Millisecond, read),
		// Phases: idle, then a heavy load, a light one, none, heavy again.
		simclock.NewTicker(clk, 2500*time.Millisecond, func(time.Time) {
			load.SetLoad([]float64{90, 10, 0, 70}[phase%4], 3)
			phase++
		}),
	}
	clk.Advance(12 * time.Second)
	for _, tk := range ticks {
		tk.Stop()
	}
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]float64, 0, s.Len())
	s.Iter(func(smp trace.Sample) bool {
		all = append(all, smp.V)
		return true
	})
	if len(reads) < 25 || reads[len(reads)-1].Max-reads[len(reads)-1].Min < 100 {
		t.Fatalf("%d reads over %v mA: want a capture read often across its phases", len(reads), reads[len(reads)-1].Max-reads[len(reads)-1].Min)
	}
	for i, live := range reads {
		soFar := all[:live.N] // a capture has no NaN: N counts every sample
		for _, q := range []struct {
			name string
			got  float64
			p    float64
		}{{"P50", live.P50, 0.5}, {"P95", live.P95, 0.95}} {
			if want := stats.Quantile(soFar, q.p); math.Float64bits(q.got) != math.Float64bits(want) {
				t.Fatalf("read %d, after %d samples: live %s %v, stats.Quantile %v", i, live.N, q.name, q.got, want)
			}
		}
	}
}

// Sampling at 5 kHz while every writer of the model runs: process loads
// and the process table, radio transfers and states, the screen and the
// decoder gate, the relay and the USB port — and a reader of the live
// summary. Run under -race this checks the published views; it also
// checks that no sample is lost or reordered.
func TestSamplingRacesWriters(t *testing.T) {
	clk := simclock.NewVirtual()
	dev, err := device.New(clk, device.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := relay.NewSwitch(clk, gpio.NewBank(4), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.OnSwitch(0, func(p relay.Position) { dev.SetRelayPosition(p == relay.PosBattery) }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Set(0, relay.PosMonitor); err != nil {
		t.Fatal(err)
	}
	m := New(clk, "HV0001", 7)
	m.SetMains(true)
	if err := m.SetVout(3.85); err != nil {
		t.Fatal(err)
	}
	m.WireSource(sw.MeasuredSource(0, dev.MonitorVisibleSource()))
	if err := m.StartSampling(MaxSampleRate); err != nil {
		t.Fatal(err)
	}

	// One goroutine per writer, so no writer's synchronisation orders
	// another's writes before the sampler's reads. The relay and the USB
	// port change phase every 100 ms: a relay flipped at every call would
	// keep the channel inside its settle window, where nothing is read.
	phase := func() int64 { return clk.Now().UnixNano() / int64(100*time.Millisecond) % 4 }
	proc := dev.CPU().StartProcess("app")
	writers := []func(i int){
		func(i int) { proc.SetLoad(float64(i%90), float64(i%7)) },
		func(i int) {
			dev.CPU().StartProcess("worker").SetLoad(10, 2)
			dev.CPU().KillByName("worker")
		},
		func(i int) { dev.WiFi().Transfer(int64(1000+i), 20, i%2 == 0) },
		func(i int) { dev.Cellular().SetState(device.RadioState(1 + i%2)) },
		func(i int) { dev.Screen().SetOn(i%2 == 0) },
		func(i int) { dev.Framebuffer().Decoder().SetOn(i%3 == 0) },
		func(int) {
			pos := relay.PosMonitor
			if phase() == 3 {
				pos = relay.PosBattery
			}
			sw.Set(0, pos)
		},
		func(int) { dev.USBPowerChanged(phase() == 1) },
		func(int) {
			if _, err := m.LiveSummary(); err != nil {
				t.Error(err)
			}
		},
	}
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	runs := make([]atomic.Int64, len(writers))
	started.Add(len(writers))
	for k, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w(i)
				if runs[k].Add(1) == 1 {
					started.Done()
				}
				runtime.Gosched()
			}
		}()
	}
	// Every writer has run once, with sampling started, before the clock
	// moves: whether one also gets a turn within the 1 000 steps is up to
	// the scheduler of a loaded host.
	started.Wait()
	for i := 0; i < 1000; i++ {
		clk.Advance(time.Millisecond)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	for k := range runs {
		if runs[k].Load() == 0 {
			t.Fatalf("writer %d never ran while sampling", k)
		}
	}
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5000 {
		t.Fatalf("captured %d samples in 1 s at 5 kHz, want 5000", s.Len())
	}
	if s.MeanDt() != 200*time.Microsecond {
		t.Fatalf("mean interval %v, want 200µs", s.MeanDt())
	}
}

// SampleRate reports the active run's rate, or 0.
func (m *Monsoon) SampleRate() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.run == nil {
		return 0
	}
	return m.run.rate
}

// OvercurrentEvents reports how many samples hit the 6 A clamp.
func (m *Monsoon) OvercurrentEvents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overcurrent
}

// watchedClock counts the calls made on a clock, its timers' included,
// and those made while a source read is in progress.
type watchedClock struct {
	simclock.Clock
	reading        *atomic.Bool
	calls, inReads atomic.Int64
}

func (c *watchedClock) note() {
	c.calls.Add(1)
	if c.reading.Load() {
		c.inReads.Add(1)
	}
}

func (c *watchedClock) Now() time.Time { c.note(); return c.Clock.Now() }

func (c *watchedClock) Sleep(d time.Duration) { c.note(); c.Clock.Sleep(d) }

func (c *watchedClock) AfterFunc(d time.Duration, f func()) simclock.Timer {
	c.note()
	return watchedTimer{c.Clock.AfterFunc(d, f), c}
}

type watchedTimer struct {
	simclock.Timer
	c *watchedClock
}

func (t watchedTimer) Stop() bool                 { t.c.note(); return t.Timer.Stop() }
func (t watchedTimer) Reset(d time.Duration) bool { t.c.note(); return t.Timer.Reset(d) }

// watchedSource marks the reads of src in progress and counts the
// instants they read. It forwards each run whole, so the run read of
// src is the path under watch.
type watchedSource struct {
	src     power.Source
	reading *atomic.Bool
	reads   int
}

func (w *watchedSource) ReadMA(first time.Time, step time.Duration, out []float64) {
	w.reading.Store(true)
	defer w.reading.Store(false)
	w.reads += len(out)
	w.src.ReadMA(first, step, out)
}

// A model read touches no clock: the sampler's contract, which lets a
// clock event hand the Monsoon a whole run of ticks, checked against the
// source a vantage point wires — the relay channel over the device's
// monitor-visible rail. The device and the relay switch run on a
// clock that counts every call, and a 10 s capture reads while every
// writer of TestSamplingRacesWriters runs. The writers are clock events
// of their own, on the driving goroutine like the reads, so a call the
// clock sees while a read is in progress is the read's.
func TestModelReadTouchesNoClock(t *testing.T) {
	clk := simclock.NewVirtual()
	var reading atomic.Bool
	model := &watchedClock{Clock: clk, reading: &reading}
	dev, err := device.New(model, device.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := relay.NewSwitch(model, gpio.NewBank(4), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.OnSwitch(0, func(p relay.Position) { dev.SetRelayPosition(p == relay.PosBattery) }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Set(0, relay.PosMonitor); err != nil {
		t.Fatal(err)
	}
	m := New(clk, "HV0001", 7)
	m.SetMains(true)
	if err := m.SetVout(3.85); err != nil {
		t.Fatal(err)
	}
	src := &watchedSource{src: sw.MeasuredSource(0, dev.MonitorVisibleSource()), reading: &reading}
	m.WireSource(src)
	if err := m.StartSampling(MaxSampleRate); err != nil {
		t.Fatal(err)
	}

	proc := dev.CPU().StartProcess("app")
	i := 0
	writers := simclock.NewTicker(clk, 7*time.Millisecond, func(now time.Time) {
		i++
		phase := now.UnixNano() / int64(100*time.Millisecond) % 4
		proc.SetLoad(float64(i%90), float64(i%7))
		dev.CPU().StartProcess("worker").SetLoad(10, 2)
		dev.CPU().KillByName("worker")
		dev.WiFi().Transfer(int64(1000+i), 20, i%2 == 0)
		dev.Cellular().SetState(device.RadioState(1 + i%2))
		dev.Screen().SetOn(i%2 == 0)
		dev.Framebuffer().Decoder().SetOn(i%3 == 0)
		pos := relay.PosMonitor
		if phase == 3 {
			pos = relay.PosBattery
		}
		sw.Set(0, pos)
		dev.USBPowerChanged(phase == 1)
	})
	defer writers.Stop()
	before := model.calls.Load()
	clk.Advance(10 * time.Second)
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 50000 || src.reads != 50000 {
		t.Fatalf("%d samples from %d reads in 10 s at 5 kHz, want 50000", s.Len(), src.reads)
	}
	if s.Summary().Max <= 0 {
		t.Fatal("the capture read nothing but zeros: the rail was never wired through")
	}
	if model.calls.Load() == before {
		t.Fatal("the writers made no clock call: the counting clock is not the model's")
	}
	if n := model.inReads.Load(); n != 0 {
		t.Fatalf("%d clock calls inside a source read", n)
	}
}

// One Step whose only foreign deadline is a minute away is one run of
// 299 999 samples. Its buffer is capped at a chunk, so the Step
// allocates the trace's chunk storage and hardly more; a buffer the
// size of the run would add 2.4 MB.
func TestRunBufferIsBounded(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	if err := m.SetVout(4.0); err != nil {
		t.Fatal(err)
	}
	m.WireSource(constSource(250))
	if err := m.StartSampling(MaxSampleRate); err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(time.Minute, func() {})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clk.Step()
	runtime.ReadMemStats(&after)
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	const run = 300000 - 1 // the tick at the deadline waits for it
	if s.Len() != run {
		t.Fatalf("one Step captured %d samples, want %d", s.Len(), run)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(run*16*11/10); got > limit {
		t.Fatalf("one Step allocated %d bytes for %d samples, want at most %d", got, run, limit)
	}
}

// A run that crosses the 6 A envelope for part of its length, across
// several buffers, counts every clamped sample.
func TestOvercurrentCountedPerSample(t *testing.T) {
	m, clk := newMon(t)
	m.SetMains(true)
	if err := m.SetVout(13.5); err != nil {
		t.Fatal(err)
	}
	from, to := clk.Now().Add(500*time.Millisecond), clk.Now().Add(2500*time.Millisecond)
	m.WireSource(power.SourceFunc(func(now time.Time) float64 {
		if !now.Before(from) && now.Before(to) {
			return 9000
		}
		return 100
	}))
	if err := m.StartSampling(MaxSampleRate); err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(3*time.Second, func() {})
	clk.Step()
	s, err := m.StopSampling()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3*MaxSampleRate-1 {
		t.Fatalf("one Step captured %d samples, want one run of %d", s.Len(), 3*MaxSampleRate-1)
	}
	clamped := 0
	s.Iter(func(smp trace.Sample) bool {
		if smp.V == MaxCurrentMA {
			clamped++
		}
		return true
	})
	if clamped != 2*MaxSampleRate {
		t.Fatalf("%d samples at the clamp, want the %d of the 2 s above 6 A", clamped, 2*MaxSampleRate)
	}
	if n := m.OvercurrentEvents(); n != clamped {
		t.Fatalf("%d overcurrent events for %d clamped samples", n, clamped)
	}
}
