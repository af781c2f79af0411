// Package monsoon models the Monsoon High Voltage Power Monitor, the
// metering hardware in every BatteryLab vantage point: 0.8–13.5 V output,
// up to 6 A continuous current, sampled at 5 kHz (§3.2). The API mirrors
// the Monsoon Python library the paper drives from the controller:
// set the output voltage, start sampling, stop and collect the trace.
//
// The monitor draws its mains power through the vantage point's WiFi
// power socket; BatteryLab keeps it off when no experiment needs it "for
// safety reasons" (§3.1), which the model enforces: an unpowered monitor
// refuses every command.
package monsoon

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/power"
	"batterylab/internal/rng"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
	"batterylab/internal/trace"
)

// Hardware envelope of the Monsoon HV.
const (
	MinVoutV      = 0.8
	MaxVoutV      = 13.5
	MaxCurrentMA  = 6000
	MaxSampleRate = 5000 // Hz
)

// Errors returned by the monitor.
var (
	ErrUnpowered   = errors.New("monsoon: no mains power")
	ErrVoutOff     = errors.New("monsoon: Vout disabled")
	ErrNoSource    = errors.New("monsoon: no measurement input wired")
	ErrBusy        = errors.New("monsoon: sampling already in progress")
	ErrNotSampling = errors.New("monsoon: not sampling")
)

// Monsoon is one power monitor. It is safe for concurrent use.
type Monsoon struct {
	clock simclock.Clock
	noise *rng.RNG

	mu          sync.Mutex
	mains       bool
	voutV       float64
	source      power.Source
	run         *samplingRun
	overcurrent int
	serial      string
}

// samplingRun is one capture: a sampler (simclock.NewSampler) hands it
// the ticks of a clock event as one run, which sampleRun reads outside
// the Monsoon's lock and appends under it.
type samplingRun struct {
	src    power.Source // the input wired when the run started
	series *trace.Series
	ticker *simclock.Ticker
	rate   int
	period time.Duration
	// adc is re-seeded for every sample's noise draw, from the seed in
	// seeds (rng.AtSeeds) of the tick's instant; buf holds up to
	// samples.ChunkLen draws and levels their ADC levels between two
	// appends. Only the run's sampler callback touches them, and a
	// sampler never runs two callbacks at once.
	adc    *rng.RNG
	seeds  []uint64
	buf    []float64
	levels []uint32
}

// New returns a monitor with mains off and Vout disabled.
func New(clock simclock.Clock, serial string, seed uint64) *Monsoon {
	return &Monsoon{
		clock:  clock,
		noise:  rng.New(seed).Fork("monsoon/" + serial),
		serial: serial,
	}
}

// Serial reports the unit's serial number.
func (m *Monsoon) Serial() string { return m.serial }

// SetMains is driven by the WiFi power socket. Cutting mains mid-run
// aborts the sampling session and disables Vout — the hard failure mode
// the access server's safety job protects against.
func (m *Monsoon) SetMains(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mains = on
	if !on {
		m.voutV = 0
		m.stopLocked()
	}
}

// Powered reports whether the unit has mains power.
func (m *Monsoon) Powered() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mains
}

// WireSource connects the measurement input: what flows through the Vout
// terminals. In a vantage point this is the relay switch's MeasuredSource
// for the selected channel. A sampling run reads the input wired when it
// started.
func (m *Monsoon) WireSource(src power.Source) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.source = src
}

// SetVout programs the output voltage. Zero disables the output. Values
// outside the HV envelope are rejected.
func (m *Monsoon) SetVout(v float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.mains {
		return ErrUnpowered
	}
	if v == 0 {
		m.voutV = 0
		return nil
	}
	if v < MinVoutV || v > MaxVoutV {
		return fmt.Errorf("monsoon: Vout %.2f V outside [%.1f, %.1f]", v, MinVoutV, MaxVoutV)
	}
	m.voutV = v
	return nil
}

// Vout reports the programmed output voltage.
func (m *Monsoon) Vout() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.voutV
}

// StartSampling begins recording current samples at rate Hz into a fresh
// trace. Rates above the hardware maximum are clamped. The monitor must
// be powered, with Vout enabled and a source wired.
func (m *Monsoon) StartSampling(rate int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.mains {
		return ErrUnpowered
	}
	if m.voutV == 0 {
		return ErrVoutOff
	}
	if m.source == nil {
		return ErrNoSource
	}
	if m.run != nil {
		return ErrBusy
	}
	if rate <= 0 || rate > MaxSampleRate {
		rate = MaxSampleRate
	}
	period := time.Duration(float64(time.Second) / float64(rate))
	run := &samplingRun{
		src:    m.source,
		series: trace.NewGridSeries("current", "mA", 10, MaxCurrentMA*10), // the ADC's 0.1 mA levels
		rate:   rate,
		period: period,
		adc:    rng.New(0),
		seeds:  make([]uint64, samples.ChunkLen),
		buf:    make([]float64, 0, samples.ChunkLen),
		levels: make([]uint32, samples.ChunkLen),
	}
	run.ticker = simclock.NewSampler(m.clock, period, func(first time.Time, n int) {
		m.sampleRun(run, first, n)
	})
	m.run = run
	return nil
}

// sampleRun records the ADC readings of the n ticks due every period
// from first: for each, the wired source's draw plus ADC noise keyed by
// the tick's instant, clamped to the 6 A envelope and quantised to its
// 0.1 mA level, which is what the trace stores. The readings are
// computed outside m.mu — the source read takes no lock and touches no
// clock (see power.Source) — into the run's buffers, which hold
// samples.ChunkLen readings at most: one source read fills one with the
// draws of its ticks, one loop derives the noise seeds of their
// instants, a loop adds the noise and writes the levels, and one lock
// section appends them and counts their overcurrent samples.
func (m *Monsoon) sampleRun(run *samplingRun, first time.Time, n int) {
	for n > 0 {
		buf := run.buf[:min(n, cap(run.buf))]
		run.src.ReadMA(first, run.period, buf)
		// The ticks' instants, stepped as integers from the first.
		seeds, levels := run.seeds[:len(buf)], run.levels[:len(buf)]
		m.noise.AtSeeds(seeds, "adc", first.UnixNano(), int64(run.period))
		over := 0
		for j, i := range buf {
			// ADC noise: ±1.2 mA gaussian, then 0.1 mA quantization.
			run.adc.Reseed(seeds[j])
			i += run.adc.Normal(0, 1.2)
			if i < 0 {
				i = 0
			}
			if i > MaxCurrentMA {
				i = MaxCurrentMA
				over++
			}
			levels[j] = uint32(i*10 + 0.5)
		}

		m.mu.Lock()
		if m.run != run { // stopped since the run was handed over
			m.mu.Unlock()
			return
		}
		if err := run.series.AppendLevels(first, run.period, levels); err != nil {
			m.mu.Unlock()
			panic(err)
		}
		m.overcurrent += over
		m.mu.Unlock()
		first, n = first.Add(time.Duration(len(buf))*run.period), n-len(buf)
	}
}

// StopSampling ends the run and returns the recorded trace.
func (m *Monsoon) StopSampling() (*trace.Series, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.run == nil {
		return nil, ErrNotSampling
	}
	s := m.run.series
	m.stopLocked()
	return s, nil
}

func (m *Monsoon) stopLocked() {
	if m.run != nil {
		m.run.ticker.Stop()
		m.run = nil
	}
}

// LiveSummary reports the streaming summary of the in-flight sampling
// run — running mean/std/min/max, exact P50/P95 (counted on the ADC's
// 0.1 mA levels: stats.Quantile of the samples, bit for bit) and charge
// integral over every sample captured so far. Samples are appended a run
// at a time (the ticks of one clock event, at most samples.ChunkLen per
// append), so on a virtual clock the summary moves in steps of a run,
// never partway through one. The read folds the samples captured since
// the previous read, a chunk's stretch per call (see trace.Series.Live),
// so each sample is folded once however often progress UIs and session
// observers read, and walks the level counts for the quantiles.
func (m *Monsoon) LiveSummary() (samples.LiveSummary, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.run == nil {
		return samples.LiveSummary{}, ErrNotSampling
	}
	return m.run.series.Live(), nil
}

// Sampling reports whether a run is in progress.
func (m *Monsoon) Sampling() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run != nil
}
