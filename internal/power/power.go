// Package power defines the component-based current model shared by the
// device and controller simulations. A device's instantaneous current draw
// is the sum of its components' draws (SoC base, CPU, screen, radios,
// codecs); the Monsoon model samples that sum at 5 kHz.
//
// All currents are in milliamps at the rail's nominal voltage.
package power

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Source reports current draw in mA over a run of instants: ReadMA sets
// out[j] to the draw at first + j·step, step ≥ 0. A read is a run, and a
// point read is a run of one (At); a run's answer equals its runs of
// one, bit for bit, so a reader may cut a run anywhere. Values must be
// non-negative.
//
// Implementations must be safe for concurrent use: the power monitor
// samples from its own ticker while workloads mutate component state.
// ReadMA sits on the 5 kHz sampling path, so it must not wait on a
// writer: a component keeps its mutex only to order its writers,
// publishes an immutable view of its state on every write (an atomic
// value, an atomic pointer to a value struct, a copy-on-write slice),
// and ReadMA loads that view once per run and fills the run from it.
// Nor may ReadMA call a clock — no Now, AfterFunc, Sleep, Hold or Timer
// method, directly or through what it reads: its answer is a function of
// the instants and the published views. The monitor samples through a
// simclock sampler, whose callback promises exactly that, so one clock
// event can hand it a whole run of ticks to read before the clock has
// reached them.
type Source interface {
	ReadMA(first time.Time, step time.Duration, out []float64)
}

// At reads src at one instant: a run of one.
func At(src Source, now time.Time) float64 {
	var v [1]float64
	src.ReadMA(now, 0, v[:])
	return v[0]
}

// SourceFunc adapts a function of one instant to the Source interface.
type SourceFunc func(now time.Time) float64

// ReadMA implements Source.
func (f SourceFunc) ReadMA(first time.Time, step time.Duration, out []float64) {
	for j := range out {
		out[j] = f(first.Add(time.Duration(j) * step))
	}
}

// Component is a named contributor to a rail's total draw. AddMA adds
// the component's draw at first + j·step to out[j], for each j where the
// draw is positive (see Add), under the same contract as Source.ReadMA:
// views loaded once per run, no lock waited on, no clock called.
type Component interface {
	Name() string
	AddMA(first time.Time, step time.Duration, out []float64)
}

// Add adds ma to every element of out, unless ma is not positive: a rail
// skips a component's non-positive draws.
func Add(out []float64, ma float64) {
	if ma > 0 {
		for j := range out {
			out[j] += ma
		}
	}
}

// Before reports how many of the instants first + j·step, j in [0, n),
// are before t: the length of the run's prefix that ends at t.
func Before(first time.Time, step time.Duration, n int, t time.Time) int {
	switch {
	case !first.Before(t):
		return 0
	case n <= 1 || step <= 0:
		return n
	}
	d := t.Sub(first)
	k := d / step
	if d%step != 0 {
		k++
	}
	return int(min(int64(n), int64(k)))
}

// EachEpoch calls f(e, lo, hi) for each stretch [lo, hi) of the
// instants first + j·step, j in [0, n), that share the epoch
// e = UnixNano / epoch, in order: a draw constant per epoch answers each
// stretch with one value.
func EachEpoch(first time.Time, step, epoch time.Duration, n int, f func(e int64, lo, hi int)) {
	t0, s, e := first.UnixNano(), int64(step), int64(epoch)
	for lo := 0; lo < n; {
		t := t0 + int64(lo)*s
		hi := lo + sameEpoch(t, s, e, n-lo)
		f(t/e, lo, hi)
		lo = hi
	}
}

// sameEpoch reports how many of the instants t + j·s ns, j in [0, n),
// share t's epoch t / e.
func sameEpoch(t, s, e int64, n int) int {
	switch {
	case n <= 1 || s <= 0:
		return n
	case t < 0: // division truncates toward zero; count instant by instant
		k := 1
		for k < n && (t+int64(k)*s)/e == t/e {
			k++
		}
		return k
	}
	left := (t/e+1)*e - t // nanoseconds to the next epoch, in (0, e]
	return int(min(int64(n), (left+s-1)/s))
}

// Rail aggregates components into a single measurable supply rail.
type Rail struct {
	mu sync.Mutex // orders Attach and Detach
	// components is sorted by name, so each instant's float sum is taken
	// in one order on every read. A write publishes a new slice;
	// a published one is never modified.
	components atomic.Pointer[[]Component]
}

// NewRail returns an empty rail.
func NewRail() *Rail {
	r := &Rail{}
	r.components.Store(&[]Component{})
	return r
}

// find reports where name is, or would be inserted, in cs.
func find(cs []Component, name string) (int, bool) {
	return slices.BinarySearchFunc(cs, name, func(c Component, name string) int {
		return strings.Compare(c.Name(), name)
	})
}

// Attach adds a component. Attaching a second component with the same
// name is a wiring bug and returns an error.
func (r *Rail) Attach(c Component) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := *r.components.Load()
	i, dup := find(cs, c.Name())
	if dup {
		return fmt.Errorf("power: component %q already attached", c.Name())
	}
	cs = slices.Insert(slices.Clip(cs), i, c)
	r.components.Store(&cs)
	return nil
}

// ReadMA implements Source by summing the attached components: each
// instant's total adds its components' positive draws in name order,
// however the instants are cut into runs.
func (r *Rail) ReadMA(first time.Time, step time.Duration, out []float64) {
	clear(out)
	for _, c := range *r.components.Load() {
		c.AddMA(first, step, out)
	}
}

// Constant is a fixed-draw component (for example a sensor hub).
type Constant struct {
	name string
	ma   float64
}

// NewConstant returns a component drawing ma milliamps whenever queried.
func NewConstant(name string, ma float64) *Constant {
	return &Constant{name: name, ma: ma}
}

// Name implements Component.
func (c *Constant) Name() string { return c.name }

// AddMA implements Component.
func (c *Constant) AddMA(_ time.Time, _ time.Duration, out []float64) { Add(out, c.ma) }

// Switched puts a component behind an on/off gate (a hardware codec
// block). It takes the component's name.
type Switched struct {
	c  Component
	on atomic.Bool
}

// NewSwitched returns c behind an initially-off gate.
func NewSwitched(c Component) *Switched { return &Switched{c: c} }

// Name implements Component.
func (s *Switched) Name() string { return s.c.Name() }

// SetOn sets the gate state.
func (s *Switched) SetOn(on bool) { s.on.Store(on) }

// On reports the gate state.
func (s *Switched) On() bool { return s.on.Load() }

// AddMA implements Component: the gate is read once per run.
func (s *Switched) AddMA(first time.Time, step time.Duration, out []float64) {
	if s.on.Load() {
		s.c.AddMA(first, step, out)
	}
}
