package device

import (
	"sync"
	"testing"
	"time"

	"batterylab/internal/power"
)

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

// A sample reads the model; it does not wait on a writer. With every
// writer mutex on the read path held — the device's, the process
// table's, each radio's, and the rail's (by an Attach stuck in its
// component's Name) — the monitor-visible draw still comes back, and it
// is the value read before the writers took their locks.
func TestReadersNeverWaitOnWriters(t *testing.T) {
	d, clk := newDev(t)
	d.SetRelayPosition(false) // bypass: the monitor sees the whole rail
	d.CPU().StartProcess("load").SetLoad(40, 5)
	d.WiFi().Transfer(1<<20, 20, false)
	d.Framebuffer().Decoder().SetOn(true)
	src := d.MonitorVisibleSource()
	want := power.At(src, clk.Now())
	if want == 0 {
		t.Fatal("bypassed device reads 0 mA")
	}

	stuck := stuckName{entered: make(chan struct{}), release: make(chan struct{}), once: new(sync.Once)}
	attached := make(chan error, 1)
	go func() { attached <- d.Rail().Attach(stuck) }()
	<-stuck.entered
	held := []*sync.Mutex{&d.mu, &d.cpu.mu, &d.wifi.mu, &d.cell.mu, &d.bt.mu}
	for _, mu := range held {
		mu.Lock()
	}
	var release sync.Once
	releaseAll := func() {
		release.Do(func() {
			for _, mu := range held {
				mu.Unlock()
			}
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
		t.Fatal("MonitorVisibleSource().ReadMA waited on a writer")
	}
	releaseAll()
	if err := <-attached; err != nil {
		t.Fatal(err)
	}
}
