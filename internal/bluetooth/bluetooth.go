// Package bluetooth models the controller's Bluetooth side: pairing with
// test devices and emulating a HID keyboard. The Bluetooth keyboard is
// BatteryLab's most portable automation channel (§3.3): it works on
// Android and iOS, needs no rooting and no ADB, and leaves the WiFi and
// cellular paths untouched during a measurement. Its costs, also
// modelled: higher per-event latency than ADB and no device mirroring.
package bluetooth

import (
	"fmt"
	"sync"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

// KeyLatency is the per-keystroke delivery latency over the HID channel.
const KeyLatency = 40 * time.Millisecond

// HIDKeyboard is the controller's emulated keyboard service. Multiple
// devices can pair; events target one device at a time by serial.
type HIDKeyboard struct {
	clock simclock.Clock

	mu     sync.Mutex
	paired map[string]*device.Device
	keys   map[string]int // per-serial keystroke counters
}

// NewHIDKeyboard returns an empty keyboard service.
func NewHIDKeyboard(clock simclock.Clock) *HIDKeyboard {
	return &HIDKeyboard{
		clock:  clock,
		paired: make(map[string]*device.Device),
		keys:   make(map[string]int),
	}
}

// Pair bonds with a device. The device's Bluetooth radio must be on.
func (k *HIDKeyboard) Pair(d *device.Device) error {
	if d.Bluetooth().State() == device.RadioOff {
		return fmt.Errorf("bluetooth: device %s radio is off", d.Serial())
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.paired[d.Serial()]; dup {
		return fmt.Errorf("bluetooth: device %s already paired", d.Serial())
	}
	k.paired[d.Serial()] = d
	return nil
}

// Paired reports whether serial is bonded.
func (k *HIDKeyboard) Paired(serial string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.paired[serial]
	return ok
}

func (k *HIDKeyboard) lookup(serial string) (*device.Device, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	d, ok := k.paired[serial]
	if !ok {
		return nil, fmt.Errorf("bluetooth: device %s not paired", serial)
	}
	return d, nil
}

// SendKey delivers one key event (e.g. "KEYCODE_DPAD_DOWN", "KEYCODE_ENTER")
// and returns the channel latency the caller should account for.
func (k *HIDKeyboard) SendKey(serial, key string) (time.Duration, error) {
	d, err := k.lookup(serial)
	if err != nil {
		return 0, err
	}
	// A HID report is a handful of bytes on the BT radio.
	d.Bluetooth().Transfer(16, 0.1, false)
	if err := d.Input(device.InputEvent{Kind: device.InputKey, Key: key}); err != nil {
		return 0, err
	}
	k.mu.Lock()
	k.keys[serial]++
	k.mu.Unlock()
	return KeyLatency, nil
}

// TypeText sends a string one keystroke at a time, reporting the total
// channel latency.
func (k *HIDKeyboard) TypeText(serial, text string) (time.Duration, error) {
	d, err := k.lookup(serial)
	if err != nil {
		return 0, err
	}
	d.Bluetooth().Transfer(int64(16*len(text)), 0.1, false)
	if err := d.Input(device.InputEvent{Kind: device.InputText, Text: text}); err != nil {
		return 0, err
	}
	k.mu.Lock()
	k.keys[serial] += len(text)
	k.mu.Unlock()
	return time.Duration(len(text)) * KeyLatency, nil
}

// Keystrokes reports how many key events were delivered to serial.
func (k *HIDKeyboard) Keystrokes(serial string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.keys[serial]
}
