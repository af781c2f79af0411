// Package wifi models the vantage point controller's WiFi access point.
// The Raspberry Pi exposes an AP (in NAT or Bridge mode) that test
// devices join; automation then reaches devices without the USB current
// that corrupts power measurements, and all device traffic flows through
// the controller — which is what lets a VPN tunnel at the controller
// change the network location every device sees (§4.3).
package wifi

import (
	"fmt"
	"sync"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/netem"
)

// Mode is the AP's forwarding mode.
type Mode int

// AP modes (§3.2: "WiFi access point (configured in NAT or Bridge mode)").
const (
	ModeNAT Mode = iota
	ModeBridge
)

func (m Mode) String() string {
	if m == ModeBridge {
		return "bridge"
	}
	return "nat"
}

// PathProvider yields the controller's current upstream path — typically
// vpn.Client.Path, so tunnel changes are picked up per transfer.
type PathProvider func() (*netem.Path, error)

// AP is the controller-hosted access point.
type AP struct {
	ssid  string
	mode  Mode
	local netem.Link

	mu      sync.Mutex
	uplink  PathProvider
	clients map[string]*device.Device
}

// NewAP creates an access point. The local hop defaults to a 2.4 GHz
// 802.11n cell: 45 Mbps each way, 2 ms RTT.
func NewAP(ssid string, mode Mode) *AP {
	return &AP{
		ssid: ssid,
		mode: mode,
		local: netem.Link{
			Name: "wifi/" + ssid, DownMbps: 45, UpMbps: 45, RTT: 2 * time.Millisecond,
		},
		clients: make(map[string]*device.Device),
	}
}

// SetUplink installs the upstream path provider.
func (ap *AP) SetUplink(p PathProvider) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	ap.uplink = p
}

// Connect associates a device with the AP. The device's WiFi radio must
// be at least idle (not off).
func (ap *AP) Connect(d *device.Device) error {
	if d.WiFi().State() == device.RadioOff {
		return fmt.Errorf("wifi: device %s radio is off", d.Serial())
	}
	ap.mu.Lock()
	defer ap.mu.Unlock()
	if _, dup := ap.clients[d.Serial()]; dup {
		return fmt.Errorf("wifi: device %s already associated", d.Serial())
	}
	ap.clients[d.Serial()] = d
	return nil
}

// Connected reports whether the serial is associated.
func (ap *AP) Connected(serial string) bool {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	_, ok := ap.clients[serial]
	return ok
}

// Path composes the device-to-origin path: the local WiFi hop plus the
// controller's upstream.
func (ap *AP) Path() (*netem.Path, error) {
	ap.mu.Lock()
	uplink := ap.uplink
	ap.mu.Unlock()
	local, err := netem.NewPath(ap.local)
	if err != nil {
		return nil, err
	}
	if uplink == nil {
		return local, nil
	}
	up, err := uplink()
	if err != nil {
		return nil, err
	}
	return local.AppendPath(up)
}

// Download moves n bytes from the network to the device through the AP,
// accounting the transfer on the device's WiFi radio and reporting how
// long it takes. The device must be associated.
func (ap *AP) Download(d *device.Device, n int64) (time.Duration, error) {
	return ap.transfer(d, n, true)
}

func (ap *AP) transfer(d *device.Device, n int64, download bool) (time.Duration, error) {
	if !ap.Connected(d.Serial()) {
		return 0, fmt.Errorf("wifi: device %s not associated with %s", d.Serial(), ap.ssid)
	}
	p, err := ap.Path()
	if err != nil {
		return 0, err
	}
	dur := p.TransferTime(n, download)
	if n > 0 && dur > 0 {
		rate := float64(n*8) / 1e6 / dur.Seconds()
		d.WiFi().Transfer(n, rate, !download)
	}
	return dur, nil
}
