package device

import (
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/power"
	"batterylab/internal/rng"
)

// Screen models the display panel: a 50 mA floor when lit plus up to
// 50 mA more with brightness.
type Screen struct {
	on atomic.Bool
}

// screenBrightness is the backlight level in [0, 1]; every panel stays
// at half.
const screenBrightness = 0.5

func newScreen() *Screen { return &Screen{} }

// Name implements power.Component.
func (s *Screen) Name() string { return "screen" }

// SetOn lights or darkens the panel.
func (s *Screen) SetOn(on bool) { s.on.Store(on) }

// On reports the panel state.
func (s *Screen) On() bool { return s.on.Load() }

// AddMA implements power.Component.
func (s *Screen) AddMA(_ time.Time, _ time.Duration, out []float64) {
	if s.on.Load() {
		power.Add(out, 50+50*screenBrightness)
	}
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

	mu      sync.Mutex // orders writers; guards the byte counters
	view    atomic.Pointer[radioView]
	txBytes int64
	rxBytes int64
}

// radioView is the power state AddMA reads. A write publishes a new
// one; a published one is never modified.
type radioView struct {
	state     RadioState
	busyUntil time.Time
	rateMbps  float64 // throughput of the transfer in flight
}

func newRadio(name string, kind RadioKind, clk interface{ Now() time.Time }) *Radio {
	r := &Radio{name: name, kind: kind, clk: clk}
	r.view.Store(&radioView{})
	return r
}

// Name implements power.Component.
func (r *Radio) Name() string { return r.name }

// SetState forces the radio state (off/idle). Active state is managed by
// transfers.
func (r *Radio) SetState(s RadioState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := *r.view.Load()
	v.state = s
	r.view.Store(&v)
}

// State reports the radio state, accounting for in-flight transfers.
func (r *Radio) State() RadioState { return r.view.Load().stateAt(r.clk.Now()) }

func (v *radioView) stateAt(now time.Time) RadioState {
	if v.state == RadioOff {
		return RadioOff
	}
	if now.Before(v.busyUntil) {
		return RadioActive
	}
	return v.state
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
	v := *r.view.Load()
	if v.state == RadioOff {
		return 0
	}
	dur := time.Duration(float64(bytes*8) / (rateMbps * 1e6) * float64(time.Second))
	now := r.clk.Now()
	start := now
	if v.busyUntil.After(now) {
		start = v.busyUntil // serialize behind the in-flight transfer
	}
	v.busyUntil = start.Add(dur)
	v.rateMbps = rateMbps
	r.view.Store(&v)
	if tx {
		r.txBytes += bytes
	} else {
		r.rxBytes += bytes
	}
	return v.busyUntil.Sub(now)
}

// Counters reports cumulative bytes moved.
func (r *Radio) Counters() (tx, rx int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.txBytes, r.rxBytes
}

// AddMA implements power.Component: the run splits where the transfer
// in flight ends.
func (r *Radio) AddMA(first time.Time, step time.Duration, out []float64) {
	v := r.view.Load()
	if v.state == RadioOff {
		return
	}
	k := power.Before(first, step, len(out), v.busyUntil)
	power.Add(out[:k], r.drawMA(RadioActive, v.rateMbps))
	power.Add(out[k:], r.drawMA(v.state, v.rateMbps))
}

// drawMA is the radio's draw in state s. Idle listening costs a trickle;
// active transfer cost grows with throughput and differs per radio
// technology (cellular radio burns more than WiFi at the same rate;
// Bluetooth is cheap).
func (r *Radio) drawMA(s RadioState, rateMbps float64) float64 {
	switch s {
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
		switch r.kind {
		case RadioBluetooth:
			return 12
		case RadioCellular:
			return 180 + 6*rateMbps
		default: // WiFi
			return 60 + 4.5*rateMbps
		}
	}
}

// ripple models supply/PMIC noise: a small zero-mean wobble, piecewise
// constant per 50 ms, derived statelessly so all samplers agree. A run
// draws it once per epoch it crosses, and the last epoch's value is
// remembered, so the runs of one epoch (a run ends at every foreign
// clock deadline) share one draw. The memo is a cache of a pure function
// of the epoch, so two samplers filling it at once store the same value.
type rippleComponent struct {
	rnd  *rng.RNG
	memo atomic.Pointer[rippleMemo]
}

// rippleMemo is one epoch's ripple draw; a published one is never
// modified.
type rippleMemo struct {
	epoch int64
	ma    float64
}

// rippleEpoch is how long the supply ripple holds one value.
const rippleEpoch = 50 * time.Millisecond

func newRipple(rnd *rng.RNG) *rippleComponent { return &rippleComponent{rnd: rnd} }

func (r *rippleComponent) Name() string { return "pmic-ripple" }

func (r *rippleComponent) AddMA(first time.Time, step time.Duration, out []float64) {
	power.EachEpoch(first, step, rippleEpoch, len(out), func(e int64, lo, hi int) {
		power.Add(out[lo:hi], r.epochMA(e))
	})
}

// epochMA is the ripple draw of epoch e.
func (r *rippleComponent) epochMA(e int64) float64 {
	if m := r.memo.Load(); m != nil && m.epoch == e {
		return m.ma
	}
	v := r.rnd.At("ripple", e).Normal(4, 2.5)
	if v < 0 {
		v = 0
	}
	r.memo.Store(&rippleMemo{epoch: e, ma: v})
	return v
}
