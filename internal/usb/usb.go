// Package usb models the controller's USB hub with per-port power
// control — the equivalent of uhubctl on the Raspberry Pi. USB serves two
// roles in a vantage point: it powers a test device when the device is not
// wired to the power monitor, and it carries ADB when reliability matters
// more than measurement purity. Port power must be cut during a battery
// measurement because the micro-controller activation current at the
// device interferes with the monitor's readings (§3.3).
package usb

import (
	"fmt"
	"sync"
)

// Peripheral is anything that can plug into a hub port. Implementations
// receive power-state notifications so they can switch their supply path
// and enable/disable their USB data function.
type Peripheral interface {
	// USBSerial identifies the peripheral on the bus.
	USBSerial() string
	// USBPowerChanged informs the peripheral that its port's VBUS went
	// up or down.
	USBPowerChanged(powered bool)
}

// Hub is a powered USB hub with individually switchable ports.
type Hub struct {
	mu    sync.Mutex
	ports []port
}

type port struct {
	powered bool
	dev     Peripheral
}

// NewHub returns a hub with n ports, all powered (the Pi boots with VBUS
// on) and empty.
func NewHub(n int) *Hub {
	h := &Hub{ports: make([]port, n)}
	for i := range h.ports {
		h.ports[i].powered = true
	}
	return h
}

func (h *Hub) check(n int) error {
	if n < 0 || n >= len(h.ports) {
		return fmt.Errorf("usb: port %d out of range [0,%d)", n, len(h.ports))
	}
	return nil
}

// Attach plugs a peripheral into port n. The peripheral immediately
// observes the port's current power state.
func (h *Hub) Attach(n int, dev Peripheral) error {
	if err := h.check(n); err != nil {
		return err
	}
	if dev == nil {
		return fmt.Errorf("usb: nil peripheral")
	}
	h.mu.Lock()
	if h.ports[n].dev != nil {
		h.mu.Unlock()
		return fmt.Errorf("usb: port %d occupied by %q", n, h.ports[n].dev.USBSerial())
	}
	h.ports[n].dev = dev
	powered := h.ports[n].powered
	h.mu.Unlock()
	dev.USBPowerChanged(powered)
	return nil
}

// SetPower switches a port's VBUS — the uhubctl operation. The attached
// peripheral, if any, is notified on changes.
func (h *Hub) SetPower(n int, on bool) error {
	if err := h.check(n); err != nil {
		return err
	}
	h.mu.Lock()
	changed := h.ports[n].powered != on
	h.ports[n].powered = on
	dev := h.ports[n].dev
	h.mu.Unlock()
	if changed && dev != nil {
		dev.USBPowerChanged(on)
	}
	return nil
}

// Powered reports a port's VBUS state.
func (h *Hub) Powered(n int) (bool, error) {
	if err := h.check(n); err != nil {
		return false, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ports[n].powered, nil
}

// PortOf finds the port holding the peripheral with the given serial,
// or -1.
func (h *Hub) PortOf(serial string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, p := range h.ports {
		if p.dev != nil && p.dev.USBSerial() == serial {
			return i
		}
	}
	return -1
}
