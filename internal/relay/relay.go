// Package relay models BatteryLab's relay-based circuit switch (§3.2).
// The switch sits between the test devices and the power monitor: each
// relay channel takes a device's voltage (+) terminal as input and
// programmatically selects between the device battery's voltage terminal
// (normal operation) and the power monitor's Vout connector (the "battery
// bypass" used during a measurement). Ground is permanently common.
//
// The switch has two jobs: enabling the bypass without manual re-wiring,
// and letting one vantage point host several test devices concurrently.
// It is driven from the controller's GPIO header: one pin per channel,
// Low = battery, High = monitor bypass.
package relay

import (
	"fmt"
	"sync"
	"time"

	"batterylab/internal/gpio"
	"batterylab/internal/power"
	"batterylab/internal/simclock"
)

// Position is a relay channel's selected path.
type Position int

// Channel positions.
const (
	// PosBattery connects the device to its own battery.
	PosBattery Position = iota
	// PosMonitor connects the device to the power monitor's Vout
	// (battery bypass).
	PosMonitor
)

func (p Position) String() string {
	if p == PosMonitor {
		return "monitor"
	}
	return "battery"
}

// SettleTime is how long contacts take to settle after actuation; the
// controller must not trust measurements taken inside this window.
const SettleTime = 10 * time.Millisecond

// ContactGain models the small series loss introduced by the relay
// contacts and extra cabling relative to the Monsoon-recommended direct
// wiring. The accuracy evaluation (Fig. 2) shows this is negligible.
const ContactGain = 1.004

// Switch is a multi-channel relay board.
type Switch struct {
	clock   simclock.Clock
	bank    *gpio.Bank
	pinBase int

	mu       sync.Mutex
	channels []channel
}

type channel struct {
	pos       Position
	settledAt time.Time
	onSwitch  []func(Position)
}

// NewSwitch wires an n-channel relay board to GPIO pins
// [pinBase, pinBase+n) of bank, configuring them as outputs. All channels
// start at PosBattery.
func NewSwitch(clock simclock.Clock, bank *gpio.Bank, pinBase, n int) (*Switch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("relay: need at least one channel, got %d", n)
	}
	s := &Switch{clock: clock, bank: bank, pinBase: pinBase, channels: make([]channel, n)}
	for i := 0; i < n; i++ {
		if err := bank.Configure(pinBase+i, gpio.Output); err != nil {
			return nil, fmt.Errorf("relay: configuring pin %d: %w", pinBase+i, err)
		}
		ch := i
		if err := bank.Watch(pinBase+i, func(level gpio.Level) {
			s.actuate(ch, level)
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Switch) checkLocked(ch int) error {
	if ch < 0 || ch >= len(s.channels) {
		return fmt.Errorf("relay: channel %d out of range [0,%d)", ch, len(s.channels))
	}
	return nil
}

// actuate reacts to the GPIO edge driving channel ch.
func (s *Switch) actuate(ch int, level gpio.Level) {
	pos := PosBattery
	if level == gpio.High {
		pos = PosMonitor
	}
	s.mu.Lock()
	if s.channels[ch].pos == pos {
		s.mu.Unlock()
		return
	}
	s.channels[ch].pos = pos
	s.channels[ch].settledAt = s.clock.Now().Add(SettleTime)
	callbacks := append([]func(Position){}, s.channels[ch].onSwitch...)
	s.mu.Unlock()
	for _, f := range callbacks {
		f(pos)
	}
}

// Set drives channel ch to pos through the GPIO pin — exactly what the
// controller's batt_switch API does.
func (s *Switch) Set(ch int, pos Position) error {
	s.mu.Lock()
	if err := s.checkLocked(ch); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	level := gpio.Low
	if pos == PosMonitor {
		level = gpio.High
	}
	return s.bank.Write(s.pinBase+ch, level)
}

// Get reports channel ch's position.
func (s *Switch) Get(ch int) (Position, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(ch); err != nil {
		return PosBattery, err
	}
	return s.channels[ch].pos, nil
}

// OnSwitch registers a callback invoked whenever channel ch changes
// position. The device model uses this to swap its supply path.
func (s *Switch) OnSwitch(ch int, f func(Position)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(ch); err != nil {
		return err
	}
	s.channels[ch].onSwitch = append(s.channels[ch].onSwitch, f)
	return nil
}

// MeasuredSource returns the current the power monitor observes on its
// Vout for channel ch given the device rail: zero unless the channel is
// in the bypass position, and scaled by the contact loss when it is. The
// monitor reads garbage (zero-clamped) during the settle window.
func (s *Switch) MeasuredSource(ch int, rail power.Source) power.Source {
	return power.SourceFunc(func(now time.Time) float64 {
		s.mu.Lock()
		if ch < 0 || ch >= len(s.channels) {
			s.mu.Unlock()
			return 0
		}
		c := s.channels[ch]
		s.mu.Unlock()
		if c.pos != PosMonitor || now.Before(c.settledAt) {
			return 0
		}
		return ContactGain * rail.CurrentMA(now)
	})
}
