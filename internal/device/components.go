package device

import (
	"sync"
	"time"

	"batterylab/internal/rng"
)

// Screen models the display panel: ~60 mA floor when lit plus up to
// ~60 mA with brightness.
type Screen struct {
	mu         sync.Mutex
	on         bool
	brightness float64 // [0, 1]
}

func newScreen() *Screen {
	return &Screen{brightness: 0.5}
}

// Name implements power.Component.
func (s *Screen) Name() string { return "screen" }

// SetOn lights or darkens the panel.
func (s *Screen) SetOn(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.on = on
}

// On reports the panel state.
func (s *Screen) On() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.on
}

// SetBrightness sets the backlight level, clamped to [0, 1].
func (s *Screen) SetBrightness(b float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b < 0 {
		b = 0
	}
	if b > 1 {
		b = 1
	}
	s.brightness = b
}

// Brightness reports the backlight level.
func (s *Screen) Brightness() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brightness
}

// CurrentMA implements power.Source.
func (s *Screen) CurrentMA(time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.on {
		return 0
	}
	return 50 + 50*s.brightness
}

// RadioKind distinguishes the device radios.
type RadioKind int

// Radio kinds.
const (
	RadioWiFi RadioKind = iota
	RadioCellular
	RadioBluetooth
)

func (k RadioKind) String() string {
	switch k {
	case RadioWiFi:
		return "wifi"
	case RadioCellular:
		return "cellular"
	default:
		return "bluetooth"
	}
}

// RadioState is a radio's power state.
type RadioState int

// Radio states.
const (
	RadioOff RadioState = iota
	RadioIdle
	RadioActive
)

// Radio models a network interface's power behaviour and byte counters.
// Transfers keep the radio in the active state for their duration; the
// active draw grows with the negotiated throughput.
type Radio struct {
	name string
	kind RadioKind
	clk  interface{ Now() time.Time }

	mu        sync.Mutex
	state     RadioState
	busyUntil time.Time
	rateMbps  float64 // throughput of the transfer in flight
	txBytes   int64
	rxBytes   int64
}

func newRadio(name string, kind RadioKind, clk interface{ Now() time.Time }) *Radio {
	return &Radio{name: name, kind: kind, clk: clk}
}

// Name implements power.Component.
func (r *Radio) Name() string { return r.name }

// Kind reports the radio type.
func (r *Radio) Kind() RadioKind { return r.kind }

// SetState forces the radio state (off/idle). Active state is managed by
// transfers.
func (r *Radio) SetState(s RadioState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = s
}

// State reports the radio state, accounting for in-flight transfers.
func (r *Radio) State() RadioState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateLocked(r.clk.Now())
}

func (r *Radio) stateLocked(now time.Time) RadioState {
	if r.state == RadioOff {
		return RadioOff
	}
	if now.Before(r.busyUntil) {
		return RadioActive
	}
	return r.state
}

// Transfer accounts bytes moved at rateMbps, keeping the radio active for
// the transfer duration and returning that duration. tx selects the
// direction counter. A transfer on an off radio moves nothing.
func (r *Radio) Transfer(bytes int64, rateMbps float64, tx bool) time.Duration {
	if bytes <= 0 || rateMbps <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == RadioOff {
		return 0
	}
	dur := time.Duration(float64(bytes*8) / (rateMbps * 1e6) * float64(time.Second))
	now := r.clk.Now()
	start := now
	if r.busyUntil.After(now) {
		start = r.busyUntil // serialize behind the in-flight transfer
	}
	r.busyUntil = start.Add(dur)
	r.rateMbps = rateMbps
	if tx {
		r.txBytes += bytes
	} else {
		r.rxBytes += bytes
	}
	return r.busyUntil.Sub(now)
}

// Counters reports cumulative bytes moved.
func (r *Radio) Counters() (tx, rx int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.txBytes, r.rxBytes
}

// CurrentMA implements power.Source. Idle listening costs a trickle;
// active transfer cost grows with throughput and differs per radio
// technology (cellular radio burns more than WiFi at the same rate;
// Bluetooth is cheap).
func (r *Radio) CurrentMA(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	state := r.stateLocked(now)
	switch state {
	case RadioOff:
		return 0
	case RadioIdle:
		switch r.kind {
		case RadioBluetooth:
			return 1
		case RadioCellular:
			return 8
		default:
			return 4
		}
	default: // active
		rate := r.rateMbps
		switch r.kind {
		case RadioBluetooth:
			return 12
		case RadioCellular:
			return 180 + 6*rate
		default: // WiFi
			return 60 + 4.5*rate
		}
	}
}

// ripple models supply/PMIC noise: a small zero-mean wobble, piecewise
// constant per 50 ms, derived statelessly so all samplers agree. The last
// epoch's value is remembered — a cache of a pure function of the epoch.
type rippleComponent struct {
	rnd *rng.RNG

	mu    sync.Mutex
	drawn bool
	epoch int64
	ma    float64
}

func newRipple(rnd *rng.RNG) *rippleComponent { return &rippleComponent{rnd: rnd} }

func (r *rippleComponent) Name() string { return "pmic-ripple" }

func (r *rippleComponent) CurrentMA(now time.Time) float64 {
	const epoch = 50 * time.Millisecond
	e := now.UnixNano() / int64(epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.drawn || r.epoch != e {
		v := r.rnd.At("ripple", e).Normal(4, 2.5)
		if v < 0 {
			v = 0
		}
		r.drawn, r.epoch, r.ma = true, e, v
	}
	return r.ma
}
