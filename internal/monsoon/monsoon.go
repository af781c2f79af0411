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

type samplingRun struct {
	src    power.Source // the input wired when the run started
	series *trace.Series
	ticker *simclock.Ticker
	rate   int
	// adc is re-seeded for every sample's noise draw (rng.AtInto). Only
	// the run's ticker callback touches it, and a ticker never runs two
	// ticks at once.
	adc *rng.RNG
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
	run := &samplingRun{
		src:    m.source,
		series: trace.NewSeries("current", "mA"),
		rate:   rate,
		adc:    rng.New(0),
	}
	period := time.Duration(float64(time.Second) / float64(rate))
	run.ticker = simclock.NewTicker(m.clock, period, func(now time.Time) {
		m.sample(run, now)
	})
	m.run = run
	return nil
}

// sample records one ADC reading: the wired source's draw plus ADC noise,
// clamped to the 6 A envelope (counting overcurrent events). The source
// read takes no lock (see power.Source), so the one lock section is the
// append.
func (m *Monsoon) sample(run *samplingRun, now time.Time) {
	i := run.src.CurrentMA(now)
	// ADC noise: ±1.2 mA gaussian, then 0.1 mA quantization.
	m.noise.AtInto(run.adc, "adc", now.UnixNano())
	i += run.adc.Normal(0, 1.2)
	if i < 0 {
		i = 0
	}
	over := false
	if i > MaxCurrentMA {
		i = MaxCurrentMA
		over = true
	}
	i = float64(int64(i*10+0.5)) / 10

	m.mu.Lock()
	if m.run == run { // not stopped since scheduling
		run.series.MustAppend(now, i)
		if over {
			m.overcurrent++
		}
	}
	m.mu.Unlock()
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
// run — running mean/std/min/max, P50/P95 estimates and charge integral
// over every sample captured so far. The moments and the integral are
// folded while the ADC ticks; the P² quantiles fold the samples captured
// since the previous read (see trace.Series.Live), so each sample is
// folded once however often progress UIs and session observers read.
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
