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

// Source reports instantaneous current draw in mA at time now. Values
// must be non-negative. Implementations must be safe for concurrent use:
// the power monitor samples from its own ticker while workloads mutate
// component state. CurrentMA sits on the 5 kHz sampling path, so it must
// not wait on a writer: a component keeps its mutex only to order its
// writers, publishes an immutable view of its state on every write
// (an atomic value, an atomic pointer to a value struct, a copy-on-write
// slice), and CurrentMA only loads that view. Nor may CurrentMA call a
// clock — no Now, AfterFunc, Sleep, Hold or Timer method, directly or
// through what it reads: its answer is a function of now and the
// published views. The monitor samples through a simclock sampler,
// whose callback promises exactly that, so one clock event can hand it
// a whole run of ticks to read before the clock has reached them.
type Source interface {
	CurrentMA(now time.Time) float64
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(now time.Time) float64

// CurrentMA implements Source.
func (f SourceFunc) CurrentMA(now time.Time) float64 { return f(now) }

// Component is a named contributor to a rail's total draw.
type Component interface {
	Source
	Name() string
}

// Rail aggregates components into a single measurable supply rail.
type Rail struct {
	mu sync.Mutex // orders Attach and Detach
	// components is sorted by name, so the float sum of CurrentMA is
	// taken in one order on every run. A write publishes a new slice;
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

// CurrentMA implements Source by summing all attached components.
func (r *Rail) CurrentMA(now time.Time) float64 {
	var total float64
	for _, c := range *r.components.Load() {
		i := c.CurrentMA(now)
		if i > 0 {
			total += i
		}
	}
	return total
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

// CurrentMA implements Source.
func (c *Constant) CurrentMA(time.Time) float64 { return c.ma }

// Switched wraps a component behind an on/off gate (a screen, a hardware
// codec block).
type Switched struct {
	name string
	src  Source
	on   atomic.Bool
}

// NewSwitched returns an initially-off gated component.
func NewSwitched(name string, src Source) *Switched {
	return &Switched{name: name, src: src}
}

// Name implements Component.
func (s *Switched) Name() string { return s.name }

// SetOn sets the gate state.
func (s *Switched) SetOn(on bool) { s.on.Store(on) }

// On reports the gate state.
func (s *Switched) On() bool { return s.on.Load() }

// CurrentMA implements Source.
func (s *Switched) CurrentMA(now time.Time) float64 {
	if !s.on.Load() {
		return 0
	}
	return s.src.CurrentMA(now)
}
