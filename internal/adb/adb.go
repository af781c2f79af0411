// Package adb models the Android Debug Bridge as BatteryLab uses it: an
// ADB server on the controller reaching test devices over one of three
// transports — USB (most reliable, but its current corrupts power
// measurements), WiFi (measurement-safe, but precludes cellular
// experiments), and Bluetooth (requires a rooted device). The controller
// switches transports dynamically per experiment needs (§3.3).
//
// The command surface implements the `adb shell` subset the paper's
// automation scripts use: input injection, activity management, package
// management, dumpsys, logcat and file transfer.
package adb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/usb"
	"batterylab/internal/wifi"
)

// TransportKind selects how the server reaches a device.
type TransportKind int

// Transports.
const (
	TransportUSB TransportKind = iota
	TransportWiFi
	TransportBluetooth
)

func (t TransportKind) String() string {
	switch t {
	case TransportUSB:
		return "usb"
	case TransportWiFi:
		return "wifi"
	default:
		return "bluetooth"
	}
}

// Latency reports the per-command round-trip cost of the transport.
func (t TransportKind) Latency() time.Duration {
	switch t {
	case TransportUSB:
		return 5 * time.Millisecond
	case TransportWiFi:
		return 18 * time.Millisecond
	default:
		return 45 * time.Millisecond
	}
}

// ErrOffline matches adb's "device offline" failure.
var ErrOffline = errors.New("adb: device offline")

// Server is the controller-side ADB server.
type Server struct {
	hub *usb.Hub
	ap  *wifi.AP

	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	dev       *device.Device
	transport TransportKind
	tcpip     bool // `adb tcpip` was issued (WiFi transport armed)
}

// NewServer returns a server that resolves USB availability through hub
// and WiFi availability through ap. Either may be nil if the vantage
// point lacks that channel.
func NewServer(hub *usb.Hub, ap *wifi.AP) *Server {
	return &Server{hub: hub, ap: ap, entries: make(map[string]*entry)}
}

// Register makes a device known to the server (the udev-style discovery
// when a device appears on any transport). Devices start on USB. ADB is
// Android tooling: iOS devices (future work in the paper, §5) are
// automated through the Bluetooth keyboard or XCTest instead.
func (s *Server) Register(d *device.Device) error {
	if os := d.Config().OS; os != "android" {
		return fmt.Errorf("adb: %s runs %s; ADB requires Android", d.Serial(), os)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[d.Serial()]; dup {
		return fmt.Errorf("adb: device %s already registered", d.Serial())
	}
	s.entries[d.Serial()] = &entry{dev: d, transport: TransportUSB}
	return nil
}

func (s *Server) lookup(serial string) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[serial]
	if !ok {
		return nil, fmt.Errorf("adb: device '%s' not found", serial)
	}
	return e, nil
}

// availableLocked checks the entry's transport reachability.
func (s *Server) availableLocked(serial string, e *entry) error {
	if !e.dev.Booted() {
		return fmt.Errorf("%w: %s not booted", ErrOffline, serial)
	}
	switch e.transport {
	case TransportUSB:
		if s.hub == nil {
			return fmt.Errorf("%w: no USB hub", ErrOffline)
		}
		port := s.hub.PortOf(serial)
		if port < 0 {
			return fmt.Errorf("%w: %s not on USB", ErrOffline, serial)
		}
		powered, err := s.hub.Powered(port)
		if err != nil || !powered {
			return fmt.Errorf("%w: USB port %d unpowered", ErrOffline, port)
		}
	case TransportWiFi:
		if !e.tcpip {
			return fmt.Errorf("%w: adb-over-wifi not enabled on %s", ErrOffline, serial)
		}
		if s.ap == nil || !s.ap.Connected(serial) {
			return fmt.Errorf("%w: %s not on WiFi", ErrOffline, serial)
		}
		if e.dev.WiFi().State() == device.RadioOff {
			return fmt.Errorf("%w: %s WiFi radio off", ErrOffline, serial)
		}
	case TransportBluetooth:
		if !e.dev.Config().Rooted {
			return fmt.Errorf("adb: ADB-over-Bluetooth requires a rooted device (%s)", serial)
		}
		if e.dev.Bluetooth().State() == device.RadioOff {
			return fmt.Errorf("%w: %s Bluetooth radio off", ErrOffline, serial)
		}
	}
	return nil
}

// available is availableLocked with locking.
func (s *Server) available(serial string) (*entry, error) {
	e, err := s.lookup(serial)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.availableLocked(serial, e); err != nil {
		return nil, err
	}
	return e, nil
}

// EnableTCPIP arms the WiFi transport (`adb tcpip 5555`). Like the real
// tool, it must be issued while the device is reachable over USB.
func (s *Server) EnableTCPIP(serial string) error {
	e, err := s.lookup(serial)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.tcpip {
		return nil // already armed; `adb tcpip` is idempotent
	}
	if e.transport != TransportUSB {
		return fmt.Errorf("adb: tcpip must be enabled over USB (current: %v)", e.transport)
	}
	if err := s.availableLocked(serial, e); err != nil {
		return err
	}
	e.tcpip = true
	return nil
}

// SetTransport switches the transport used for subsequent commands,
// verifying the new transport is reachable.
func (s *Server) SetTransport(serial string, t TransportKind) error {
	e, err := s.lookup(serial)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := e.transport
	e.transport = t
	if err := s.availableLocked(serial, e); err != nil {
		e.transport = prev
		return err
	}
	return nil
}

// Transport reports the device's current transport.
func (s *Server) Transport(serial string) (TransportKind, error) {
	e, err := s.lookup(serial)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.transport, nil
}

// CommandLatency reports the per-command latency of the device's current
// transport; automation drivers pace scripts with it.
func (s *Server) CommandLatency(serial string) (time.Duration, error) {
	t, err := s.Transport(serial)
	if err != nil {
		return 0, err
	}
	return t.Latency(), nil
}
