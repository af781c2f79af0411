package usb

import (
	"sort"
	"testing"
)

type fakeDev struct {
	serial string
	events []bool
}

func (f *fakeDev) USBSerial() string            { return f.serial }
func (f *fakeDev) USBPowerChanged(powered bool) { f.events = append(f.events, powered) }

func TestAttachNotifiesCurrentPower(t *testing.T) {
	h := NewHub(2)
	d := &fakeDev{serial: "J7DUO1"}
	if err := h.Attach(0, d); err != nil {
		t.Fatal(err)
	}
	if len(d.events) != 1 || d.events[0] != true {
		t.Fatalf("events = %v, want [true]", d.events)
	}
}

func TestAttachOccupied(t *testing.T) {
	h := NewHub(1)
	h.Attach(0, &fakeDev{serial: "a"})
	if err := h.Attach(0, &fakeDev{serial: "b"}); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestAttachNil(t *testing.T) {
	h := NewHub(1)
	if err := h.Attach(0, nil); err == nil {
		t.Fatal("nil peripheral accepted")
	}
}

func TestSetPowerNotifies(t *testing.T) {
	h := NewHub(1)
	d := &fakeDev{serial: "x"}
	h.Attach(0, d)
	h.SetPower(0, false)
	h.SetPower(0, false) // no change
	h.SetPower(0, true)
	want := []bool{true, false, true}
	if len(d.events) != len(want) {
		t.Fatalf("events = %v, want %v", d.events, want)
	}
	for i := range want {
		if d.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", d.events, want)
		}
	}
}

func TestDetachNotifiesPowerLoss(t *testing.T) {
	h := NewHub(1)
	d := &fakeDev{serial: "x"}
	h.Attach(0, d)
	h.Detach(0)
	if last := d.events[len(d.events)-1]; last != false {
		t.Fatal("detach did not notify power loss")
	}
	if got := h.PortOf("x"); got != -1 {
		t.Fatalf("PortOf after detach = %d", got)
	}
}

func TestPortOfAndList(t *testing.T) {
	h := NewHub(3)
	h.Attach(2, &fakeDev{serial: "b"})
	h.Attach(0, &fakeDev{serial: "a"})
	if h.PortOf("b") != 2 || h.PortOf("a") != 0 || h.PortOf("zz") != -1 {
		t.Fatal("PortOf wrong")
	}
	list := h.List()
	if len(list) != 2 || list[0].Serial != "a" || list[1].Serial != "b" {
		t.Fatalf("List = %+v", list)
	}
}

func TestPowered(t *testing.T) {
	h := NewHub(1)
	on, err := h.Powered(0)
	if err != nil || !on {
		t.Fatalf("Powered = %v, %v", on, err)
	}
	h.SetPower(0, false)
	on, _ = h.Powered(0)
	if on {
		t.Fatal("still powered after SetPower(false)")
	}
}

func TestRangeChecks(t *testing.T) {
	h := NewHub(1)
	if err := h.SetPower(9, true); err == nil {
		t.Fatal("out-of-range SetPower accepted")
	}
	if _, err := h.Powered(-1); err == nil {
		t.Fatal("negative port accepted")
	}
	if err := h.Detach(4); err == nil {
		t.Fatal("out-of-range detach accepted")
	}
}

// List reports the attached peripherals' serials sorted by port, the
// equivalent of `lsusb`/`adb devices` inventory at the transport level.
func (h *Hub) List() []PortInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []PortInfo
	for i, p := range h.ports {
		if p.dev != nil {
			out = append(out, PortInfo{Port: i, Serial: p.dev.USBSerial(), Powered: p.powered})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// Detach unplugs port n's peripheral, notifying it of power loss first.
func (h *Hub) Detach(n int) error {
	if err := h.check(n); err != nil {
		return err
	}
	h.mu.Lock()
	dev := h.ports[n].dev
	h.ports[n].dev = nil
	h.mu.Unlock()
	if dev != nil {
		dev.USBPowerChanged(false)
	}
	return nil
}

// PortInfo describes one occupied port.
type PortInfo struct {
	Port    int
	Serial  string
	Powered bool
}
