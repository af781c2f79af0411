package device

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"batterylab/internal/gpio"
	"batterylab/internal/power"
	"batterylab/internal/relay"
	"batterylab/internal/simclock"
)

// A run read equals its runs of one, bit for bit, on every source a
// vantage point wires: the rail, the device's monitor-visible draw on
// the monitor and USB paths, booted or not, and a relay channel over it.
// The runs are random — a start within a second of the clock's instant,
// 1 to 4096 samples at 5 kHz — plus one run across each instant where a
// view's answer changes: a 100 ms CPU epoch and a 50 ms ripple epoch, a
// radio's busyUntil and a relay's settledAt. A process's load changes
// between runs. The rail itself is held to the per-instant sum: its
// components in name order, each read as a run of one, non-positive
// draws skipped.
func TestRunReadMatchesRunsOfOne(t *testing.T) {
	const step = time.Second / 5000
	clk := simclock.NewVirtual()
	d, err := New(clk, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := relay.NewSwitch(clk, gpio.NewBank(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.OnSwitch(0, func(p relay.Position) { d.SetRelayPosition(p == relay.PosBattery) }); err != nil {
		t.Fatal(err)
	}
	proc := d.CPU().StartProcess("app")
	d.Framebuffer().Decoder().SetOn(true)
	clk.Advance(1234567 * time.Microsecond) // off every epoch boundary

	rnd := rand.New(rand.NewPCG(41, 5))
	setLoad := func() { proc.SetLoad(rnd.Float64()*60, rnd.Float64()*10) }
	// check reads random runs of src, and a run across each of marks,
	// changing the process's load before each, and compares every
	// instant's bits with want's.
	check := func(t *testing.T, src power.Source, want func(time.Time) float64, marks ...time.Time) {
		t.Helper()
		now := clk.Now()
		type run struct {
			first time.Time
			n     int
		}
		var runs []run
		for range 24 {
			runs = append(runs, run{now.Add(time.Duration(rnd.Int64N(int64(2*time.Second))) - time.Second), 1 + rnd.IntN(4096)})
		}
		for _, at := range marks {
			n := 2 + rnd.IntN(4095)
			off := time.Duration(1+rnd.IntN(n-1))*step + time.Duration(rnd.Int64N(int64(step)))
			runs = append(runs, run{at.Add(-off), n})
		}
		for _, r := range runs {
			setLoad()
			out := make([]float64, r.n)
			src.ReadMA(r.first, step, out)
			for j, got := range out {
				at := r.first.Add(time.Duration(j) * step)
				if w := want(at); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("run of %d from %v: sample %d (%v) = %v mA, want %v", r.n, r.first, j, at, got, w)
				}
			}
		}
	}
	runsOfOne := func(src power.Source) func(time.Time) float64 {
		return func(at time.Time) float64 { return power.At(src, at) }
	}
	epochEnd := func(epoch time.Duration) time.Time {
		return clk.Now().Truncate(epoch).Add(epoch)
	}
	busyUntil := func() time.Time { return clk.Now().Add(d.WiFi().Transfer(1<<19, 20, false)) }

	t.Run("rail", func(t *testing.T) {
		parts := []power.Component{
			power.NewConstant("soc-base", 22), d.cpu, d.screen, d.wifi, d.cell, d.bt, d.fb.decoder,
			newRipple(d.rnd.Fork("ripple")), // a pure function of the epoch, as New's
		}
		slices.SortFunc(parts, func(a, b power.Component) int { return strings.Compare(a.Name(), b.Name()) })
		sum := func(at time.Time) float64 {
			var total float64
			for _, c := range parts {
				if v := drawAt(c, at); v > 0 {
					total += v
				}
			}
			return total
		}
		check(t, d.Rail(), sum, busyUntil(), epochEnd(utilEpoch), epochEnd(utilEpoch).Add(-rippleEpoch))
	})

	monitor := d.MonitorVisibleSource()
	channel := sw.MeasuredSource(0, monitor)
	t.Run("monitor path", func(t *testing.T) {
		if err := sw.Set(0, relay.PosMonitor); err != nil {
			t.Fatal(err)
		}
		settledAt := clk.Now().Add(relay.SettleTime)
		if d.Path() != PathMonitor {
			t.Fatalf("path %v, want monitor", d.Path())
		}
		check(t, monitor, runsOfOne(monitor), busyUntil(), epochEnd(utilEpoch))
		check(t, channel, runsOfOne(channel), settledAt, busyUntil(), epochEnd(rippleEpoch))
	})
	t.Run("relay at battery", func(t *testing.T) {
		if err := sw.Set(0, relay.PosBattery); err != nil {
			t.Fatal(err)
		}
		check(t, channel, func(time.Time) float64 { return 0 })
		check(t, d, runsOfOne(d), busyUntil(), epochEnd(utilEpoch))
	})
	usb := d.USBObservedSource()
	t.Run("USB down", func(t *testing.T) {
		check(t, usb, func(time.Time) float64 { return 0 })
	})
	t.Run("USB up", func(t *testing.T) {
		d.USBPowerChanged(true)
		defer d.USBPowerChanged(false)
		if d.Path() != PathUSB {
			t.Fatalf("path %v, want usb", d.Path())
		}
		d.CPU().StartProcess("burn").SetLoad(90, 5) // past the USB budget at times
		defer d.CPU().KillByName("burn")
		check(t, usb, runsOfOne(usb), busyUntil(), epochEnd(utilEpoch))
		check(t, monitor, runsOfOne(monitor), busyUntil(), epochEnd(rippleEpoch))
	})
	t.Run("unbooted", func(t *testing.T) {
		if err := sw.Set(0, relay.PosMonitor); err != nil {
			t.Fatal(err)
		}
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
		zero := func(time.Time) float64 { return 0 }
		check(t, d, zero)
		check(t, monitor, zero)
		check(t, channel, zero)
	})
}
