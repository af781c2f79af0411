package device

import (
	"testing"
	"time"

	"batterylab/internal/simclock"
)

// BenchmarkRailRun is the model read of a 5 kHz capture: a booted device
// on the monitor path, one process under load and the decoder lit, its
// monitor-visible source read as one 4096-sample run, and the same
// instants read as 4096 runs of one. An op is 4096 samples, each op's
// instants following the last's the way a capture's do; ns/sample
// divides it.
func BenchmarkRailRun(b *testing.B) {
	const (
		step = time.Second / 5000
		n    = 4096
	)
	clk := simclock.NewVirtual()
	d, err := New(clk, Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	d.SetRelayPosition(false) // bypass: the monitor sees the rail
	d.CPU().StartProcess("load").SetLoad(35, 6)
	d.Framebuffer().Decoder().SetOn(true)
	src := d.MonitorVisibleSource()
	out := make([]float64, n)
	for _, bench := range []struct {
		name string
		read func(first time.Time)
	}{
		{"run", func(first time.Time) { src.ReadMA(first, step, out) }},
		{"runs of one", func(first time.Time) {
			for j := range out {
				src.ReadMA(first.Add(time.Duration(j)*step), step, out[j:j+1])
			}
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				bench.read(clk.Now().Add(time.Duration(i*n) * step))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
}
