// Package gpio models the controller's General-Purpose I/O header — the
// interface through which the BatteryLab controller drives the relay-based
// circuit switch. Pins have a direction and a level; output writes can be
// observed by registered watchers (the relay coils).
package gpio

import (
	"fmt"
	"sync"
)

// Level is a digital pin level.
type Level bool

// Pin levels.
const (
	Low  Level = false
	High Level = true
)

func (l Level) String() string {
	if l == High {
		return "high"
	}
	return "low"
}

// Direction is a pin's configured direction.
type Direction int

// Pin directions.
const (
	Unconfigured Direction = iota
	Input
	Output
)

func (d Direction) String() string {
	switch d {
	case Input:
		return "in"
	case Output:
		return "out"
	default:
		return "unconfigured"
	}
}

// Bank is a set of numbered GPIO pins (the Pi 3B+ header exposes 26
// usable ones).
type Bank struct {
	mu   sync.Mutex
	pins []pin
}

type pin struct {
	dir      Direction
	level    Level
	watchers []func(Level)
}

// NewBank returns a bank with n unconfigured pins.
func NewBank(n int) *Bank {
	return &Bank{pins: make([]pin, n)}
}

func (b *Bank) check(n int) error {
	if n < 0 || n >= len(b.pins) {
		return fmt.Errorf("gpio: pin %d out of range [0,%d)", n, len(b.pins))
	}
	return nil
}

// Configure sets a pin's direction. Reconfiguring is allowed (Linux
// sysfs semantics); it resets the level to Low.
func (b *Bank) Configure(n int, dir Direction) error {
	if err := b.check(n); err != nil {
		return err
	}
	if dir != Input && dir != Output {
		return fmt.Errorf("gpio: invalid direction %v", dir)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pins[n].dir = dir
	b.pins[n].level = Low
	return nil
}

// Write drives an output pin and notifies watchers. Writing an input or
// unconfigured pin is an error.
func (b *Bank) Write(n int, level Level) error {
	if err := b.check(n); err != nil {
		return err
	}
	b.mu.Lock()
	if b.pins[n].dir != Output {
		b.mu.Unlock()
		return fmt.Errorf("gpio: write to non-output pin %d (%v)", n, b.pins[n].dir)
	}
	changed := b.pins[n].level != level
	b.pins[n].level = level
	watchers := append([]func(Level){}, b.pins[n].watchers...)
	b.mu.Unlock()
	if changed {
		for _, w := range watchers {
			w(level)
		}
	}
	return nil
}

// Watch registers f to run on every level change of output pin n. The
// callback runs synchronously on the writer's goroutine.
func (b *Bank) Watch(n int, f func(Level)) error {
	if err := b.check(n); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pins[n].watchers = append(b.pins[n].watchers, f)
	return nil
}
