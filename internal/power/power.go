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
	"time"
)

// Source reports instantaneous current draw in mA at time now. Values
// must be non-negative. Implementations must be safe for concurrent use:
// the power monitor samples from its own ticker while workloads mutate
// component state.
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
	mu sync.RWMutex
	// components is sorted by name, so the float sum of CurrentMA is
	// taken in one order on every run.
	components []Component
}

// NewRail returns an empty rail.
func NewRail() *Rail { return &Rail{} }

// findLocked reports where name is, or would be inserted, in components.
func (r *Rail) findLocked(name string) (int, bool) {
	return slices.BinarySearchFunc(r.components, name, func(c Component, name string) int {
		return strings.Compare(c.Name(), name)
	})
}

// Attach adds a component. Attaching a second component with the same
// name is a wiring bug and returns an error.
func (r *Rail) Attach(c Component) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, dup := r.findLocked(c.Name())
	if dup {
		return fmt.Errorf("power: component %q already attached", c.Name())
	}
	r.components = slices.Insert(r.components, i, c)
	return nil
}

// CurrentMA implements Source by summing all attached components.
func (r *Rail) CurrentMA(now time.Time) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total float64
	for _, c := range r.components {
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

	mu sync.RWMutex
	on bool
}

// NewSwitched returns an initially-off gated component.
func NewSwitched(name string, src Source) *Switched {
	return &Switched{name: name, src: src}
}

// Name implements Component.
func (s *Switched) Name() string { return s.name }

// SetOn sets the gate state.
func (s *Switched) SetOn(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.on = on
}

// On reports the gate state.
func (s *Switched) On() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.on
}

// CurrentMA implements Source.
func (s *Switched) CurrentMA(now time.Time) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.on {
		return 0
	}
	return s.src.CurrentMA(now)
}
