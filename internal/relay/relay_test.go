package relay

import (
	"sync"
	"testing"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/gpio"
	"batterylab/internal/power"
	"batterylab/internal/simclock"
)

func newSwitch(t *testing.T, n int) (*Switch, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual()
	bank := gpio.NewBank(26)
	s, err := NewSwitch(clk, bank, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk
}

func TestDefaultsToBattery(t *testing.T) {
	s, _ := newSwitch(t, 3)
	for ch := 0; ch < 3; ch++ {
		pos, err := s.Get(ch)
		if err != nil || pos != PosBattery {
			t.Fatalf("channel %d = %v, %v", ch, pos, err)
		}
	}
}

func TestSetSwitchesPosition(t *testing.T) {
	s, _ := newSwitch(t, 2)
	if err := s.Set(1, PosMonitor); err != nil {
		t.Fatal(err)
	}
	pos, _ := s.Get(1)
	if pos != PosMonitor {
		t.Fatalf("pos = %v", pos)
	}
	// Channel 0 untouched.
	pos, _ = s.Get(0)
	if pos != PosBattery {
		t.Fatal("unrelated channel switched")
	}
}

func TestOnSwitchCallback(t *testing.T) {
	s, _ := newSwitch(t, 1)
	var events []Position
	s.OnSwitch(0, func(p Position) { events = append(events, p) })
	s.Set(0, PosMonitor)
	s.Set(0, PosMonitor) // no change
	s.Set(0, PosBattery)
	if len(events) != 2 || events[0] != PosMonitor || events[1] != PosBattery {
		t.Fatalf("events = %v", events)
	}
}

func TestSettleWindow(t *testing.T) {
	s, clk := newSwitch(t, 1)
	s.Set(0, PosMonitor)
	settled, err := s.Settled(0)
	if err != nil {
		t.Fatal(err)
	}
	if settled {
		t.Fatal("settled immediately after actuation")
	}
	clk.Advance(SettleTime)
	settled, _ = s.Settled(0)
	if !settled {
		t.Fatal("not settled after SettleTime")
	}
}

func TestMeasuredSourceGating(t *testing.T) {
	s, clk := newSwitch(t, 1)
	rail := power.SourceFunc(func(time.Time) float64 { return 100 })
	src := s.MeasuredSource(0, rail)

	if got := power.At(src, clk.Now()); got != 0 {
		t.Fatalf("battery position reads %v, want 0", got)
	}
	s.Set(0, PosMonitor)
	if got := power.At(src, clk.Now()); got != 0 {
		t.Fatalf("unsettled reads %v, want 0", got)
	}
	clk.Advance(SettleTime)
	want := ContactGain * 100
	if got := power.At(src, clk.Now()); got != want {
		t.Fatalf("bypass reads %v, want %v", got, want)
	}
	s.Set(0, PosBattery)
	clk.Advance(SettleTime)
	if got := power.At(src, clk.Now()); got != 0 {
		t.Fatalf("back-to-battery reads %v, want 0", got)
	}
}

func TestContactGainSmall(t *testing.T) {
	if ContactGain < 1.0 || ContactGain > 1.01 {
		t.Fatalf("ContactGain %v should be a small positive loss", ContactGain)
	}
}

func TestRangeErrors(t *testing.T) {
	s, _ := newSwitch(t, 1)
	if err := s.Set(5, PosMonitor); err == nil {
		t.Fatal("out-of-range Set accepted")
	}
	if _, err := s.Get(-1); err == nil {
		t.Fatal("negative Get accepted")
	}
	if err := s.OnSwitch(3, func(Position) {}); err == nil {
		t.Fatal("out-of-range OnSwitch accepted")
	}
	if _, err := s.Settled(9); err == nil {
		t.Fatal("out-of-range Settled accepted")
	}
}

func TestZeroChannels(t *testing.T) {
	clk := simclock.NewVirtual()
	if _, err := NewSwitch(clk, gpio.NewBank(4), 0, 0); err == nil {
		t.Fatal("zero-channel switch accepted")
	}
}

func TestPositionString(t *testing.T) {
	if PosBattery.String() != "battery" || PosMonitor.String() != "monitor" {
		t.Fatal("Position strings")
	}
}

// Settled reports whether channel ch's contacts have settled.
func (s *Switch) Settled(ch int) (bool, error) {
	if err := s.check(ch); err != nil {
		return false, err
	}
	return !s.clock.Now().Before(s.channels[ch].contact.Load().settledAt), nil
}

// stuckName is a component whose first Name call blocks until release is
// closed: an Attach of it holds the rail's writer mutex meanwhile.
type stuckName struct {
	entered, release chan struct{}
	once             *sync.Once
}

func (s stuckName) Name() string {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return "zz-stuck"
}

func (stuckName) AddMA(time.Time, time.Duration, []float64) {}

// The monitor's input does not wait on a writer either: with the switch's
// mutex and the device rail's held, MeasuredSource over a bypassed
// device still reads, and reads what it read before.
func TestMeasuredSourceNeverWaitsOnWriters(t *testing.T) {
	s, clk := newSwitch(t, 1)
	dev, err := device.New(clk, device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OnSwitch(0, func(p Position) { dev.SetRelayPosition(p == PosBattery) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, PosMonitor); err != nil {
		t.Fatal(err)
	}
	clk.Advance(SettleTime)
	src := s.MeasuredSource(0, dev.MonitorVisibleSource())
	want := power.At(src, clk.Now())
	if want == 0 {
		t.Fatal("bypassed channel reads 0 mA")
	}

	stuck := stuckName{entered: make(chan struct{}), release: make(chan struct{}), once: new(sync.Once)}
	attached := make(chan error, 1)
	go func() { attached <- dev.Rail().Attach(stuck) }()
	<-stuck.entered
	s.mu.Lock()
	var release sync.Once
	releaseAll := func() {
		release.Do(func() {
			s.mu.Unlock()
			close(stuck.release)
		})
	}
	t.Cleanup(releaseAll)

	got := make(chan float64, 1)
	go func() { got <- power.At(src, clk.Now()) }()
	select {
	case v := <-got:
		if v != want {
			t.Fatalf("read under held writers = %v mA, want %v", v, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MeasuredSource waited on a writer")
	}
	releaseAll()
	if err := <-attached; err != nil {
		t.Fatal(err)
	}
}
