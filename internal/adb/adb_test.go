package adb

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/usb"
	"batterylab/internal/wifi"
)

type rig struct {
	clk *simclock.Virtual
	dev *device.Device
	hub *usb.Hub
	ap  *wifi.AP
	srv *Server
}

func newRig(t *testing.T, rooted bool) *rig {
	t.Helper()
	clk := simclock.NewVirtual()
	dev, err := device.New(clk, device.Config{Seed: 1, Rooted: rooted})
	if err != nil {
		t.Fatal(err)
	}
	hub := usb.NewHub(4)
	if err := hub.Attach(0, dev); err != nil {
		t.Fatal(err)
	}
	ap := wifi.NewAP("blab", wifi.ModeNAT)
	if err := ap.Connect(dev); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(hub, ap)
	if err := srv.Register(dev); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, dev: dev, hub: hub, ap: ap, srv: srv}
}

func TestRegisterAndDevices(t *testing.T) {
	r := newRig(t, false)
	if err := r.srv.Register(r.dev); err == nil {
		t.Fatal("double register accepted")
	}
	devs := r.srv.Devices()
	if len(devs) != 1 || !devs[0].Online || devs[0].Transport != TransportUSB {
		t.Fatalf("devices = %+v", devs)
	}
}

func TestUSBUnpoweredGoesOffline(t *testing.T) {
	r := newRig(t, false)
	r.hub.SetPower(0, false)
	if _, err := r.srv.Shell(r.dev.Serial(), "echo hi"); !errors.Is(err, ErrOffline) {
		t.Fatalf("want ErrOffline, got %v", err)
	}
	devs := r.srv.Devices()
	if devs[0].Online {
		t.Fatal("device listed online with unpowered port")
	}
}

func TestTCPIPRequiresUSBFirst(t *testing.T) {
	r := newRig(t, false)
	// Try WiFi before enabling tcpip.
	if err := r.srv.SetTransport(r.dev.Serial(), TransportWiFi); err == nil {
		t.Fatal("WiFi transport without tcpip accepted")
	}
	if err := r.srv.EnableTCPIP(r.dev.Serial()); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.SetTransport(r.dev.Serial(), TransportWiFi); err != nil {
		t.Fatal(err)
	}
	tr, _ := r.srv.Transport(r.dev.Serial())
	if tr != TransportWiFi {
		t.Fatalf("transport = %v", tr)
	}
	// Now USB power can be cut and commands still flow (the measurement
	// configuration).
	r.hub.SetPower(0, false)
	if _, err := r.srv.Shell(r.dev.Serial(), "echo hi"); err != nil {
		t.Fatalf("WiFi shell with USB off: %v", err)
	}
}

func TestBluetoothRequiresRoot(t *testing.T) {
	r := newRig(t, false)
	if err := r.srv.SetTransport(r.dev.Serial(), TransportBluetooth); err == nil {
		t.Fatal("BT transport on unrooted device accepted")
	}
	rr := newRig(t, true)
	if err := rr.srv.SetTransport(rr.dev.Serial(), TransportBluetooth); err != nil {
		t.Fatal(err)
	}
}

func TestFailedTransportSwitchKeepsPrevious(t *testing.T) {
	r := newRig(t, false)
	if err := r.srv.SetTransport(r.dev.Serial(), TransportBluetooth); err == nil {
		t.Fatal("switch should fail")
	}
	tr, _ := r.srv.Transport(r.dev.Serial())
	if tr != TransportUSB {
		t.Fatalf("transport = %v after failed switch, want usb", tr)
	}
}

func TestShellEchoAndUnknown(t *testing.T) {
	r := newRig(t, false)
	out, err := r.srv.Shell(r.dev.Serial(), "echo hello world")
	if err != nil || out != "hello world" {
		t.Fatalf("echo = %q, %v", out, err)
	}
	if _, err := r.srv.Shell(r.dev.Serial(), "frobnicate"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := r.srv.Shell(r.dev.Serial(), ""); err == nil {
		t.Fatal("empty command accepted")
	}
	if _, err := r.srv.Shell("nosuch", "echo"); err == nil {
		t.Fatal("unknown serial accepted")
	}
}

func TestShellInputRouting(t *testing.T) {
	r := newRig(t, false)
	app := &captureApp{pkg: "com.app"}
	r.dev.Install(app)
	r.dev.LaunchApp("com.app")

	cmds := []string{
		"input tap 100 200",
		"input keyevent KEYCODE_ENTER",
		"input text hello",
		"input swipe 300 800 300 200 300", // swipe up = scroll down
	}
	for _, c := range cmds {
		if _, err := r.srv.Shell(r.dev.Serial(), c); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
	if len(app.events) != 4 {
		t.Fatalf("events = %d", len(app.events))
	}
	if app.events[0].Kind != device.InputTap || app.events[0].X != 100 {
		t.Fatalf("tap = %+v", app.events[0])
	}
	if app.events[3].Kind != device.InputScroll || !app.events[3].ScrollDown {
		t.Fatalf("swipe = %+v", app.events[3])
	}
}

func TestShellInputErrors(t *testing.T) {
	r := newRig(t, false)
	bad := []string{
		"input",
		"input tap 1",
		"input tap a b",
		"input keyevent",
		"input swipe 1 2 3",
		"input frob",
	}
	for _, c := range bad {
		if _, err := r.srv.Shell(r.dev.Serial(), c); err == nil {
			t.Fatalf("%q accepted", c)
		}
	}
}

func TestShellAMLifecycle(t *testing.T) {
	r := newRig(t, false)
	app := &captureApp{pkg: "com.brave.browser"}
	r.dev.Install(app)
	out, err := r.srv.Shell(r.dev.Serial(), "am start -n com.brave.browser/.MainActivity")
	if err != nil || !strings.Contains(out, "com.brave.browser") {
		t.Fatalf("am start = %q, %v", out, err)
	}
	if r.dev.Foreground() != "com.brave.browser" {
		t.Fatal("app not foregrounded")
	}
	if _, err := r.srv.Shell(r.dev.Serial(), "am force-stop com.brave.browser"); err != nil {
		t.Fatal(err)
	}
	if r.dev.Foreground() != "" {
		t.Fatal("app not stopped")
	}
	if _, err := r.srv.Shell(r.dev.Serial(), "am start"); err == nil {
		t.Fatal("am start without -n accepted")
	}
}

func TestShellPM(t *testing.T) {
	r := newRig(t, false)
	app := &captureApp{pkg: "com.app"}
	r.dev.Install(app)
	out, err := r.srv.Shell(r.dev.Serial(), "pm list packages")
	if err != nil || !strings.Contains(out, "package:com.app") {
		t.Fatalf("pm list = %q, %v", out, err)
	}
	out, err = r.srv.Shell(r.dev.Serial(), "pm clear com.app")
	if err != nil || out != "Success" {
		t.Fatalf("pm clear = %q, %v", out, err)
	}
	if app.cleared != 1 {
		t.Fatal("ClearData not invoked")
	}
}

func TestShellDumpsysAndLogcat(t *testing.T) {
	r := newRig(t, false)
	out, err := r.srv.Shell(r.dev.Serial(), "dumpsys battery")
	if err != nil || !strings.Contains(out, "level:") {
		t.Fatalf("dumpsys = %q, %v", out, err)
	}
	r.dev.Logcat().Append("T", device.Info, "marker")
	out, err = r.srv.Shell(r.dev.Serial(), "logcat -d")
	if err != nil || !strings.Contains(out, "marker") {
		t.Fatalf("logcat -d = %q, %v", out, err)
	}
	if _, err := r.srv.Shell(r.dev.Serial(), "logcat -c"); err != nil {
		t.Fatal(err)
	}
	if r.dev.Logcat().Len() != 0 {
		t.Fatal("logcat -c did not clear")
	}
}

func TestShellGetprop(t *testing.T) {
	r := newRig(t, false)
	out, err := r.srv.Shell(r.dev.Serial(), "getprop ro.product.model")
	if err != nil || out != "Samsung J7 Duo" {
		t.Fatalf("getprop = %q, %v", out, err)
	}
	out, err = r.srv.Shell(r.dev.Serial(), "getprop")
	if err != nil || !strings.Contains(out, "[ro.serialno]") {
		t.Fatalf("getprop all = %q, %v", out, err)
	}
}

func TestPushPullRm(t *testing.T) {
	r := newRig(t, false)
	if err := r.srv.Push(r.dev.Serial(), "/sdcard/v.mp4", []byte("x")); err != nil {
		t.Fatal(err)
	}
	data, err := r.srv.Pull(r.dev.Serial(), "/sdcard/v.mp4")
	if err != nil || string(data) != "x" {
		t.Fatalf("pull = %q, %v", data, err)
	}
	out, err := r.srv.Shell(r.dev.Serial(), "ls /sdcard/")
	if err != nil || !strings.Contains(out, "v.mp4") {
		t.Fatalf("ls = %q, %v", out, err)
	}
	if _, err := r.srv.Shell(r.dev.Serial(), "rm /sdcard/v.mp4"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Pull(r.dev.Serial(), "/sdcard/v.mp4"); err == nil {
		t.Fatal("pull after rm succeeded")
	}
}

func TestCommandLatencyOrdering(t *testing.T) {
	if !(TransportUSB.Latency() < TransportWiFi.Latency() &&
		TransportWiFi.Latency() < TransportBluetooth.Latency()) {
		t.Fatal("latency ordering: USB < WiFi < BT expected")
	}
	r := newRig(t, false)
	lat, err := r.srv.CommandLatency(r.dev.Serial())
	if err != nil || lat != TransportUSB.Latency() {
		t.Fatalf("latency = %v, %v", lat, err)
	}
}

func TestOfflineWhenNotBooted(t *testing.T) {
	r := newRig(t, false)
	r.dev.Shutdown()
	if _, err := r.srv.Shell(r.dev.Serial(), "echo hi"); !errors.Is(err, ErrOffline) {
		t.Fatalf("want ErrOffline, got %v", err)
	}
}

// captureApp records delivered input events.
type captureApp struct {
	pkg     string
	events  []device.InputEvent
	cleared int
}

func (c *captureApp) PackageName() string            { return c.pkg }
func (c *captureApp) Launch(*device.Device) error    { return nil }
func (c *captureApp) Stop(*device.Device) error      { return nil }
func (c *captureApp) ClearData(*device.Device) error { c.cleared++; return nil }
func (c *captureApp) HandleInput(_ *device.Device, ev device.InputEvent) error {
	c.events = append(c.events, ev)
	return nil
}

// Devices lists registered serials with their state, like `adb devices`.
func (s *Server) Devices() []DeviceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceState, 0, len(s.entries))
	for serial, e := range s.entries {
		st := DeviceState{Serial: serial, Transport: e.transport}
		st.Online = s.availableLocked(serial, e) == nil
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Serial < out[j].Serial })
	return out
}

// Push uploads a file to the device (`adb push`).
func (s *Server) Push(serial, path string, data []byte) error {
	e, err := s.available(serial)
	if err != nil {
		return err
	}
	return e.dev.Storage().Push(path, data)
}

// Pull downloads a file from the device (`adb pull`).
func (s *Server) Pull(serial, path string) ([]byte, error) {
	e, err := s.available(serial)
	if err != nil {
		return nil, err
	}
	return e.dev.Storage().Pull(path)
}

// DeviceState is one `adb devices` row.
type DeviceState struct {
	Serial    string
	Transport TransportKind
	Online    bool
}
