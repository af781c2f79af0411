package monsoon

import (
	"testing"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

// BenchmarkCapture5kHz is the capture layer of a measurement: 10 s of
// 5 kHz sampling of a real device's rail, read through the bypass the
// way a vantage point wires it, with a 100 ms foreign ticker (a device
// epoch) bounding the runs. In the live case a 1 s ticker also reads
// LiveSummary, as a session's live tick does, so the summary's fold and
// its quantiles are paid for; without it nothing folds. An op is one
// capture; ns/sample divides it by its 50 000 samples. Building the
// device and the monitor is not timed.
func BenchmarkCapture5kHz(b *testing.B) {
	for _, c := range []struct {
		name string
		live bool
	}{{"capture", false}, {"live", true}} {
		b.Run(c.name, func(b *testing.B) { benchCapture(b, c.live) })
	}
}

func benchCapture(b *testing.B, live bool) {
	b.ReportAllocs()
	const (
		span  = 10 * time.Second
		count = int(span / time.Second * MaxSampleRate)
	)
	for range b.N {
		b.StopTimer()
		clk := simclock.NewVirtual()
		dev, err := device.New(clk, device.Config{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		dev.SetRelayPosition(false) // bypass: the monitor sees the rail
		dev.CPU().StartProcess("load").SetLoad(35, 6)
		m := New(clk, "HV0001", 7)
		m.SetMains(true)
		if err := m.SetVout(4.0); err != nil {
			b.Fatal(err)
		}
		m.WireSource(dev.MonitorVisibleSource())
		foreign := simclock.NewTicker(clk, 100*time.Millisecond, func(time.Time) {})
		reads := 0
		tick := simclock.NewTicker(clk, time.Second, func(time.Time) {
			if _, err := m.LiveSummary(); live && err == nil {
				reads++
			}
		})
		if !live {
			tick.Stop()
		}
		end := clk.Now().Add(span)
		b.StartTimer()

		if err := m.StartSampling(MaxSampleRate); err != nil {
			b.Fatal(err)
		}
		for clk.Now().Before(end) && clk.Step() {
		}
		clk.RunUntil(end)
		s, err := m.StopSampling()
		if err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if s.Len() != count {
			b.Fatalf("captured %d samples in %v at 5 kHz, want %d", s.Len(), span, count)
		}
		if live && reads < 9 {
			b.Fatalf("%d live reads in %v, want one a second", reads, span)
		}
		foreign.Stop()
		tick.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/sample")
}
