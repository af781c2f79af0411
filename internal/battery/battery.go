// Package battery models a removable lithium-ion phone battery: nominal
// capacity, an open-circuit-voltage curve over state of charge, and charge
// accounting. BatteryLab's relay circuit ("battery bypass") disconnects
// this battery and substitutes the Monsoon's Vout so that all current is
// drawn — and measured — through the monitor; the model keeps the same
// semantics so tests can assert that measurement requires the bypass.
package battery

import (
	"fmt"
	"sync"
)

// Battery is a chemical cell with charge state. It is safe for concurrent
// use.
type Battery struct {
	mu          sync.Mutex
	capacityMAH float64
	chargeMAH   float64
	nominalV    float64
	attached    bool // physically seated in the phone
}

// Config describes a battery.
type Config struct {
	// CapacityMAH is the design capacity, e.g. 3000 for a Samsung J7 Duo.
	CapacityMAH float64
	// NominalVoltage is the pack's nominal voltage, e.g. 3.85.
	NominalVoltage float64
}

// New returns a fully charged, attached battery.
func New(cfg Config) (*Battery, error) {
	if cfg.CapacityMAH <= 0 {
		return nil, fmt.Errorf("battery: non-positive capacity %v", cfg.CapacityMAH)
	}
	if cfg.NominalVoltage <= 0 {
		return nil, fmt.Errorf("battery: non-positive voltage %v", cfg.NominalVoltage)
	}
	return &Battery{
		capacityMAH: cfg.CapacityMAH,
		chargeMAH:   cfg.CapacityMAH,
		nominalV:    cfg.NominalVoltage,
		attached:    true,
	}, nil
}

// CapacityMAH reports the design capacity.
func (b *Battery) CapacityMAH() float64 { return b.capacityMAH }

// NominalVoltage reports the pack's nominal voltage.
func (b *Battery) NominalVoltage() float64 { return b.nominalV }

// SoC reports state of charge in [0, 1].
func (b *Battery) SoC() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chargeMAH / b.capacityMAH
}

// ChargeMAH reports the remaining charge.
func (b *Battery) ChargeMAH() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chargeMAH
}

// Drain removes mah of charge (clamped at empty) and reports the charge
// actually removed. Draining a detached battery is a wiring bug.
func (b *Battery) Drain(mah float64) (float64, error) {
	if mah < 0 {
		return 0, fmt.Errorf("battery: negative drain %v", mah)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.attached {
		return 0, fmt.Errorf("battery: drain while detached")
	}
	drained := mah
	if drained > b.chargeMAH {
		drained = b.chargeMAH
	}
	b.chargeMAH -= drained
	return drained, nil
}

// Detach removes the battery from the phone (the relay's bypass position,
// or a human lifting the pack). Detaching twice is an error so tests catch
// double-switching.
func (b *Battery) Detach() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.attached {
		return fmt.Errorf("battery: already detached")
	}
	b.attached = false
	return nil
}

// Attach reseats the battery.
func (b *Battery) Attach() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.attached {
		return fmt.Errorf("battery: already attached")
	}
	b.attached = true
	return nil
}

// Attached reports whether the battery is seated.
func (b *Battery) Attached() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attached
}

// VoltageV reports the open-circuit voltage at the current state of
// charge using a piecewise-linear Li-ion discharge curve anchored at the
// nominal voltage.
func (b *Battery) VoltageV() float64 {
	soc := b.SoC()
	// Normalized Li-ion OCV curve: 4.35 V full, flat plateau around
	// nominal, knee below 10 %.
	type knot struct{ soc, v float64 }
	curve := []knot{
		{0.00, 3.00},
		{0.05, 3.40},
		{0.10, 3.60},
		{0.30, 3.72},
		{0.50, 3.80},
		{0.70, 3.90},
		{0.90, 4.10},
		{1.00, 4.35},
	}
	scale := b.nominalV / 3.85
	for i := 1; i < len(curve); i++ {
		if soc <= curve[i].soc {
			lo, hi := curve[i-1], curve[i]
			frac := (soc - lo.soc) / (hi.soc - lo.soc)
			return (lo.v + frac*(hi.v-lo.v)) * scale
		}
	}
	return curve[len(curve)-1].v * scale
}
