package bluetooth

import (
	"testing"

	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

func pairDev(t *testing.T) (*HIDKeyboard, *device.Device) {
	t.Helper()
	clk := simclock.NewVirtual()
	d, err := device.New(clk, device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kb := NewHIDKeyboard(clk)
	if err := kb.Pair(d); err != nil {
		t.Fatal(err)
	}
	return kb, d
}

func TestPairRequiresRadio(t *testing.T) {
	clk := simclock.NewVirtual()
	d, _ := device.New(clk, device.Config{Seed: 1})
	d.Bluetooth().SetState(device.RadioOff)
	kb := NewHIDKeyboard(clk)
	if err := kb.Pair(d); err == nil {
		t.Fatal("pairing with BT off accepted")
	}
}

func TestDoublePair(t *testing.T) {
	kb, d := pairDev(t)
	if err := kb.Pair(d); err == nil {
		t.Fatal("double pair accepted")
	}
}

func TestSendKeyDelivers(t *testing.T) {
	kb, d := pairDev(t)
	app := &captureApp{pkg: "a"}
	d.Install(app)
	d.LaunchApp("a")
	lat, err := kb.SendKey(d.Serial(), "KEYCODE_ENTER")
	if err != nil {
		t.Fatal(err)
	}
	if lat != KeyLatency {
		t.Fatalf("latency = %v", lat)
	}
	if len(app.events) != 1 || app.events[0].Key != "KEYCODE_ENTER" {
		t.Fatalf("events = %+v", app.events)
	}
	if kb.Keystrokes(d.Serial()) != 1 {
		t.Fatal("keystroke counter")
	}
}

func TestSendKeyUnpaired(t *testing.T) {
	kb, d := pairDev(t)
	kb.Unpair(d.Serial())
	if kb.Paired(d.Serial()) {
		t.Fatal("still paired")
	}
	if _, err := kb.SendKey(d.Serial(), "K"); err == nil {
		t.Fatal("send to unpaired device accepted")
	}
}

func TestTypeTextLatencyScales(t *testing.T) {
	kb, d := pairDev(t)
	app := &captureApp{pkg: "a"}
	d.Install(app)
	d.LaunchApp("a")
	lat, err := kb.TypeText(d.Serial(), "news.com")
	if err != nil {
		t.Fatal(err)
	}
	if lat != 8*KeyLatency {
		t.Fatalf("latency = %v, want %v", lat, 8*KeyLatency)
	}
	if kb.Keystrokes(d.Serial()) != 8 {
		t.Fatalf("keystrokes = %d", kb.Keystrokes(d.Serial()))
	}
}

func TestBTActivityAccounted(t *testing.T) {
	kb, d := pairDev(t)
	kb.SendKey(d.Serial(), "K")
	_, rx := d.Bluetooth().Counters()
	if rx == 0 {
		t.Fatal("no BT bytes accounted")
	}
}

// captureApp records delivered input events.
type captureApp struct {
	pkg    string
	events []device.InputEvent
}

func (c *captureApp) PackageName() string            { return c.pkg }
func (c *captureApp) Launch(*device.Device) error    { return nil }
func (c *captureApp) Stop(*device.Device) error      { return nil }
func (c *captureApp) ClearData(*device.Device) error { return nil }
func (c *captureApp) HandleInput(_ *device.Device, ev device.InputEvent) error {
	c.events = append(c.events, ev)
	return nil
}

// Unpair removes the bond.
func (k *HIDKeyboard) Unpair(serial string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.paired, serial)
}
