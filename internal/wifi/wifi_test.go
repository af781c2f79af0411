package wifi

import (
	"testing"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/netem"
	"batterylab/internal/simclock"
)

func newAPWithDevice(t *testing.T) (*AP, *device.Device, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual()
	d, err := device.New(clk, device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap := NewAP("batterylab", ModeNAT)
	if err := ap.Connect(d); err != nil {
		t.Fatal(err)
	}
	return ap, d, clk
}

func TestConnectRequiresRadio(t *testing.T) {
	clk := simclock.NewVirtual()
	d, _ := device.New(clk, device.Config{Seed: 1})
	d.WiFi().SetState(device.RadioOff)
	ap := NewAP("x", ModeBridge)
	if err := ap.Connect(d); err == nil {
		t.Fatal("connect with radio off accepted")
	}
}

func TestDuplicateConnect(t *testing.T) {
	ap, d, _ := newAPWithDevice(t)
	if err := ap.Connect(d); err == nil {
		t.Fatal("duplicate association accepted")
	}
}

func TestDisconnect(t *testing.T) {
	ap, d, _ := newAPWithDevice(t)
	ap.Disconnect(d.Serial())
	if ap.Connected(d.Serial()) {
		t.Fatal("still connected")
	}
	if _, err := ap.Download(d, 1000); err == nil {
		t.Fatal("transfer after disconnect accepted")
	}
}

func TestPathWithoutUplink(t *testing.T) {
	ap, _, _ := newAPWithDevice(t)
	p, err := ap.Path()
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 1 {
		t.Fatalf("hops = %d, want 1 (local only)", p.Hops())
	}
	if p.DownMbps() != 45 {
		t.Fatalf("local down = %v", p.DownMbps())
	}
}

func TestPathComposesUplink(t *testing.T) {
	ap, _, _ := newAPWithDevice(t)
	up, _ := netem.NewPath(netem.Link{Name: "isp", DownMbps: 8, UpMbps: 4, RTT: 200 * time.Millisecond})
	ap.SetUplink(func() (*netem.Path, error) { return up, nil })
	p, err := ap.Path()
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 || p.DownMbps() != 8 {
		t.Fatalf("composed path: hops=%d down=%v", p.Hops(), p.DownMbps())
	}
	rtt, err := ap.RTT()
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 202*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestDownloadAccountsRadio(t *testing.T) {
	ap, d, _ := newAPWithDevice(t)
	dur, err := ap.Download(d, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("zero transfer time")
	}
	_, rx := d.WiFi().Counters()
	if rx != 1_000_000 {
		t.Fatalf("rx = %d", rx)
	}
	if d.WiFi().State() != device.RadioActive {
		t.Fatal("radio not active during transfer")
	}
}

func TestUploadDirection(t *testing.T) {
	ap, d, _ := newAPWithDevice(t)
	if _, err := ap.Upload(d, 500_000); err != nil {
		t.Fatal(err)
	}
	tx, _ := d.WiFi().Counters()
	if tx != 500_000 {
		t.Fatalf("tx = %d", tx)
	}
}

func TestUplinkBottleneckSlowsTransfer(t *testing.T) {
	ap, d, _ := newAPWithDevice(t)
	fast, err := ap.Download(d, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	slow1, _ := netem.NewPath(netem.Link{Name: "vpn", DownMbps: 6, UpMbps: 6, RTT: 220 * time.Millisecond})
	ap.SetUplink(func() (*netem.Path, error) { return slow1, nil })
	slow, err := ap.Download(d, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Fatalf("tunneled transfer should be slower: %v vs %v", slow, fast)
	}
}

func TestClientsListing(t *testing.T) {
	ap, d, _ := newAPWithDevice(t)
	cs := ap.Clients()
	if len(cs) != 1 || cs[0] != d.Serial() {
		t.Fatalf("clients = %v", cs)
	}
}

func TestModeString(t *testing.T) {
	if ModeNAT.String() != "nat" || ModeBridge.String() != "bridge" {
		t.Fatal("mode strings")
	}
}

// Association and traffic calls only the tests make; devices join with
// Connect and fetch with Download.

// Disconnect dissociates a device.
func (ap *AP) Disconnect(serial string) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	delete(ap.clients, serial)
}

// Clients lists associated serials.
func (ap *AP) Clients() []string {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	out := make([]string, 0, len(ap.clients))
	for s := range ap.clients {
		out = append(out, s)
	}
	return out
}

// Upload moves n bytes from the device to the network.
func (ap *AP) Upload(d *device.Device, n int64) (time.Duration, error) {
	return ap.transfer(d, n, false)
}

// RTT reports the current device-to-origin round-trip time.
func (ap *AP) RTT() (time.Duration, error) {
	p, err := ap.Path()
	if err != nil {
		return 0, err
	}
	return p.RTT(), nil
}
