package device

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"batterylab/internal/power"
	"batterylab/internal/rng"
	"batterylab/internal/simclock"
)

func newDev(t *testing.T) (*Device, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual()
	d, err := New(clk, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d, clk
}

func TestDefaults(t *testing.T) {
	d, _ := newDev(t)
	cfg := d.Config()
	if cfg.Model != "Samsung J7 Duo" || cfg.APILevel != 26 || cfg.Cores != 8 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if d.Battery().CapacityMAH() != 3000 {
		t.Fatal("battery default wrong")
	}
	if !d.Booted() {
		t.Fatal("device should boot on New")
	}
	if d.Path() != PathBattery {
		t.Fatalf("path = %v, want battery", d.Path())
	}
}

func TestIdleCurrentRange(t *testing.T) {
	d, clk := newDev(t)
	// Booted, screen on at 0.5 brightness, idle: base 24 + screen 90 +
	// cpu ~25 + radios ~5 + ripple ~4 — expect roughly 120-180 mA.
	var sum float64
	const n = 50
	for i := 0; i < n; i++ {
		clk.Advance(100 * time.Millisecond)
		sum += power.At(d, clk.Now())
	}
	avg := sum / n
	if avg < 110 || avg > 190 {
		t.Fatalf("idle draw = %.1f mA, want 110-190", avg)
	}
}

func TestScreenOffReducesDraw(t *testing.T) {
	d, clk := newDev(t)
	on := power.At(d, clk.Now())
	d.Screen().SetOn(false)
	off := power.At(d, clk.Now())
	if on-off < 60 {
		t.Fatalf("screen gate too small: on=%.1f off=%.1f", on, off)
	}
}

func TestShutdownZeroesDraw(t *testing.T) {
	d, clk := newDev(t)
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := power.At(d, clk.Now()); got != 0 {
		t.Fatalf("draw after shutdown = %v", got)
	}
	if err := d.Shutdown(); err == nil {
		t.Fatal("double shutdown accepted")
	}
	if len(d.CPU().Processes()) != 0 {
		t.Fatal("processes survive shutdown")
	}
}

func TestBootRequiresPower(t *testing.T) {
	d, _ := newDev(t)
	d.Shutdown()
	d.Battery().Detach()
	d.SetRelayPosition(true) // battery position but battery detached
	if err := d.Boot(); err == nil {
		t.Fatal("boot without power accepted")
	}
	d.Battery().Attach()
	d.SetRelayPosition(true)
	if err := d.Boot(); err != nil {
		t.Fatal(err)
	}
}

func TestRelayBypassPowersDevice(t *testing.T) {
	d, _ := newDev(t)
	d.Battery().Detach()
	d.SetRelayPosition(false) // bypass: monitor supplies
	if d.Path() != PathMonitor {
		t.Fatalf("path = %v, want monitor", d.Path())
	}
	if !d.Booted() {
		t.Fatal("device lost power during seamless bypass switch")
	}
}

func TestPowerLossShutsDown(t *testing.T) {
	d, _ := newDev(t)
	d.Battery().Detach()
	d.SetRelayPosition(true) // battery position, no battery, no USB
	if d.Booted() {
		t.Fatal("device survived power loss")
	}
	if d.Path() != PathNone {
		t.Fatalf("path = %v", d.Path())
	}
}

func TestUSBPathPreferred(t *testing.T) {
	d, _ := newDev(t)
	d.USBPowerChanged(true)
	if d.Path() != PathUSB {
		t.Fatalf("path = %v, want usb", d.Path())
	}
	d.USBPowerChanged(false)
	if d.Path() != PathBattery {
		t.Fatalf("path = %v, want battery", d.Path())
	}
}

func TestUSBObservedDistortsReading(t *testing.T) {
	d, clk := newDev(t)
	obs := d.USBObservedSource()
	if got := power.At(obs, clk.Now()); got != 0 {
		t.Fatalf("USB-observed without USB = %v", got)
	}
	d.USBPowerChanged(true)
	true_ := power.At(d, clk.Now())
	seen := power.At(obs, clk.Now())
	if math.Abs(seen-true_) < 0.1*true_ {
		t.Fatalf("USB observation should be distorted: true=%.1f seen=%.1f", true_, seen)
	}
}

func TestBatteryDrainsOverTime(t *testing.T) {
	d, clk := newDev(t)
	before := d.Battery().ChargeMAH()
	clk.Advance(10 * time.Minute)
	after := d.Battery().ChargeMAH()
	drained := before - after
	// ~150 mA for 1/6 h ≈ 25 mAh.
	if drained < 10 || drained > 60 {
		t.Fatalf("drained %.1f mAh in 10 min, want 10-60", drained)
	}
}

func TestNoDrainOnBypass(t *testing.T) {
	d, clk := newDev(t)
	d.SetRelayPosition(false)
	before := d.Battery().ChargeMAH()
	clk.Advance(10 * time.Minute)
	if got := d.Battery().ChargeMAH(); got != before {
		t.Fatalf("battery drained %.2f mAh while bypassed", before-got)
	}
}

func TestCPUProcessLifecycle(t *testing.T) {
	d, clk := newDev(t)
	p := d.CPU().StartProcess("com.example.app")
	p.SetLoad(40, 2)
	clk.Advance(time.Second)
	util := d.CPU().UtilAt(clk.Now())
	if util < 30 || util > 55 {
		t.Fatalf("util = %.1f, want ~40+system", util)
	}
	if err := d.CPU().Kill(p.PID()); err != nil {
		t.Fatal(err)
	}
	if err := d.CPU().Kill(p.PID()); err == nil {
		t.Fatal("double kill accepted")
	}
}

func TestCPUUtilClamped(t *testing.T) {
	d, clk := newDev(t)
	for i := 0; i < 5; i++ {
		d.CPU().StartProcess("burn").SetLoad(60, 1)
	}
	clk.Advance(time.Second)
	if util := d.CPU().UtilAt(clk.Now()); util > 100 {
		t.Fatalf("util = %v > 100", util)
	}
}

func TestCPUUtilStableWithinEpoch(t *testing.T) {
	d, clk := newDev(t)
	p := d.CPU().StartProcess("x")
	p.SetLoad(30, 5)
	clk.Advance(time.Second)
	now := clk.Now()
	a := d.CPU().UtilAt(now)
	b := d.CPU().UtilAt(now)
	if a != b {
		t.Fatalf("same-instant samples differ: %v vs %v", a, b)
	}
}

func TestKillByName(t *testing.T) {
	d, _ := newDev(t)
	d.CPU().StartProcess("dup")
	d.CPU().StartProcess("dup")
	if n := d.CPU().KillByName("dup"); n != 2 {
		t.Fatalf("killed %d, want 2", n)
	}
	if d.CPU().FindProcess("dup") != nil {
		t.Fatal("process survived KillByName")
	}
}

func TestStoragePushPull(t *testing.T) {
	d, _ := newDev(t)
	if err := d.Storage().Push("/sdcard/video.mp4", []byte("mp4data")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Storage().Pull("/sdcard/video.mp4")
	if err != nil || string(got) != "mp4data" {
		t.Fatalf("Pull = %q, %v", got, err)
	}
	if _, err := d.Storage().Pull("/nope"); err == nil {
		t.Fatal("Pull missing file accepted")
	}
	list := d.Storage().List("/sdcard/")
	if len(list) != 1 || list[0] != "/sdcard/video.mp4" {
		t.Fatalf("List = %v", list)
	}
	if err := d.Storage().Delete("/sdcard/video.mp4"); err != nil {
		t.Fatal(err)
	}
	if err := d.Storage().Delete("/sdcard/video.mp4"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestRadioTransferCounters(t *testing.T) {
	d, clk := newDev(t)
	w := d.WiFi()
	dur := w.Transfer(1_000_000, 8, false) // 1 MB at 8 Mbps = 1 s
	if math.Abs(dur.Seconds()-1.0) > 0.01 {
		t.Fatalf("transfer duration = %v, want ~1s", dur)
	}
	if w.State() != RadioActive {
		t.Fatal("radio not active during transfer")
	}
	clk.Advance(2 * time.Second)
	if w.State() != RadioIdle {
		t.Fatal("radio still active after transfer")
	}
	tx, rx := w.Counters()
	if tx != 0 || rx != 1_000_000 {
		t.Fatalf("counters = %d, %d", tx, rx)
	}
}

func TestRadioOffNoTransfer(t *testing.T) {
	d, _ := newDev(t)
	d.Cellular().SetState(RadioOff)
	if dur := d.Cellular().Transfer(1000, 10, true); dur != 0 {
		t.Fatal("transfer on off radio moved bytes")
	}
}

func TestRadioActiveDrawScalesWithRate(t *testing.T) {
	d, clk := newDev(t)
	w := d.WiFi()
	w.Transfer(10_000_000, 5, false)
	slow := drawAt(w, clk.Now())
	d2, clk2 := newDev(t)
	d2.WiFi().Transfer(10_000_000, 20, false)
	fast := drawAt(d2.WiFi(), clk2.Now())
	if fast <= slow {
		t.Fatalf("draw should grow with rate: %v (5 Mbps) vs %v (20 Mbps)", slow, fast)
	}
}

func TestRadioSerialization(t *testing.T) {
	d, _ := newDev(t)
	w := d.WiFi()
	d1 := w.Transfer(1_000_000, 8, false)
	d2 := w.Transfer(1_000_000, 8, false)
	if d2 <= d1 {
		t.Fatalf("second transfer should queue behind first: %v then %v", d1, d2)
	}
}

func TestLogcat(t *testing.T) {
	d, _ := newDev(t)
	d.Logcat().Clear()
	d.Logcat().Append("Test", Info, "hello")
	if d.Logcat().Len() != 1 {
		t.Fatal("append failed")
	}
	txt := d.Logcat().DumpText()
	if !strings.Contains(txt, "I/Test: hello") {
		t.Fatalf("logcat text = %q", txt)
	}
}

func TestLogcatRing(t *testing.T) {
	clk := simclock.NewVirtual()
	lc := NewLogcat(clk, 3)
	for i := 0; i < 10; i++ {
		lc.Append("t", Debug, "m")
	}
	if lc.Len() != 3 {
		t.Fatalf("ring retained %d, want 3", lc.Len())
	}
}

func TestDumpsysBattery(t *testing.T) {
	d, _ := newDev(t)
	out, err := d.Dumpsys("battery")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "level: 100") || !strings.Contains(out, "Li-ion") {
		t.Fatalf("dumpsys battery = %q", out)
	}
	if _, err := d.Dumpsys("nosuch"); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestDumpsysCPUListsProcesses(t *testing.T) {
	d, _ := newDev(t)
	out, err := d.Dumpsys("cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "system_server") {
		t.Fatalf("dumpsys cpuinfo = %q", out)
	}
}

func TestFramebufferActivity(t *testing.T) {
	d, _ := newDev(t)
	fb := d.Framebuffer()
	fb.SetActivity(30, 1)
	if fb.UpdateRate() != 30 {
		t.Fatalf("update rate = %v", fb.UpdateRate())
	}
	fb.SetActivity(100, 5) // clamped
	fps, frac := fb.Activity()
	if fps != 60 || frac != 1 {
		t.Fatalf("clamp failed: %v, %v", fps, frac)
	}
}

func TestFactoryReset(t *testing.T) {
	d, _ := newDev(t)
	d.Storage().Push("/sdcard/x", []byte("1"))
	d.Install(&stubApp{pkg: "com.x"})
	boots := d.BootCount()
	if err := d.FactoryReset(); err != nil {
		t.Fatal(err)
	}
	if d.Storage().Exists("/sdcard/x") {
		t.Fatal("storage survived factory reset")
	}
	if len(d.Packages()) != 0 {
		t.Fatal("apps survived factory reset")
	}
	if d.BootCount() != boots+1 {
		t.Fatal("factory reset should reboot")
	}
	if !d.Booted() {
		t.Fatal("device off after factory reset")
	}
}

// The per-epoch utilization memo is a cache of a pure function: it must
// never show through. UtilAt of a lone process is that process's draw.
func TestCPUUtilMemo(t *testing.T) {
	d, _ := newDev(t)
	d.CPU().killAll()
	p := d.CPU().StartProcess("x")
	p.SetLoad(30, 5)
	at := func(ms int) time.Time { return simclock.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	fresh := func(now time.Time, target, sigma float64) float64 {
		return p.noise.At("util", now.UnixNano()/int64(utilEpoch)).TruncNormal(target, sigma, 0, 100)
	}

	// Two samplers at different instants of one epoch agree, and with an
	// unmemoised draw.
	a, b := d.CPU().UtilAt(at(1000)), d.CPU().UtilAt(at(1099))
	if a != b || a != fresh(at(1000), 30, 5) {
		t.Fatalf("within one epoch: %v, %v, fresh draw %v", a, b, fresh(at(1000), 30, 5))
	}
	// An epoch boundary redraws.
	if c := d.CPU().UtilAt(at(1100)); c != fresh(at(1100), 30, 5) || c == a {
		t.Fatalf("next epoch: %v, fresh draw %v, previous %v", c, fresh(at(1100), 30, 5), a)
	}
	// SetLoad mid-epoch changes the very next sample.
	p.SetLoad(60, 5)
	if c := d.CPU().UtilAt(at(1101)); c != fresh(at(1101), 60, 5) {
		t.Fatalf("after SetLoad: %v, fresh draw %v", c, fresh(at(1101), 60, 5))
	}
	// A sampler that looks back at an earlier epoch gets that epoch's
	// value, and the current one is unchanged afterwards.
	p.SetLoad(30, 5)
	if c := d.CPU().UtilAt(at(1000)); c != a {
		t.Fatalf("looking back: %v, want %v", c, a)
	}
	if c := d.CPU().UtilAt(at(1150)); c != fresh(at(1150), 30, 5) {
		t.Fatalf("after looking back: %v, fresh draw %v", c, fresh(at(1150), 30, 5))
	}
	p.SetLoad(0, 0)
	if c := d.CPU().UtilAt(at(1150)); c != 0 {
		t.Fatalf("idle process: %v, want 0", c)
	}
}

func TestRippleMemo(t *testing.T) {
	src := rng.New(5)
	r := newRipple(src)
	fresh := func(ms int) float64 {
		return math.Max(0, src.At("ripple", simclock.Epoch.Add(time.Duration(ms)*time.Millisecond).UnixNano()/int64(50*time.Millisecond)).Normal(4, 2.5))
	}
	for _, ms := range []int{0, 49, 50, 51, 10, 120, 149, 150} {
		if got := drawAt(r, simclock.Epoch.Add(time.Duration(ms)*time.Millisecond)); got != fresh(ms) {
			t.Fatalf("ripple at %d ms = %v, fresh draw %v", ms, got, fresh(ms))
		}
	}
}

func TestProcessesStayInPIDOrder(t *testing.T) {
	d, _ := newDev(t)
	c := d.CPU()
	for _, name := range []string{"a", "b", "a", "c"} {
		c.StartProcess(name)
	}
	if n := c.KillByName("a"); n != 2 {
		t.Fatalf("KillByName = %d, want 2", n)
	}
	if err := c.Kill(c.FindProcess("b").PID()); err != nil {
		t.Fatal(err)
	}
	c.StartProcess("d")
	procs := c.Processes()
	for i := 1; i < len(procs); i++ {
		if procs[i-1].PID() >= procs[i].PID() {
			t.Fatalf("process table out of pid order at %d", i)
		}
	}
	if last := procs[len(procs)-1]; last.Name() != "d" || c.FindProcess("a") != nil {
		t.Fatalf("table after kills: last %q", last.Name())
	}
}

// Kill removes a process by pid.
func (c *CPU) Kill(pid int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	procs := *c.procs.Load()
	i := slices.IndexFunc(procs, func(p *Process) bool { return p.pid == pid })
	if i < 0 {
		return fmt.Errorf("cpu: no process %d", pid)
	}
	procs = slices.Delete(slices.Clone(procs), i, i+1)
	c.procs.Store(&procs)
	return nil
}

// drawAt is c's draw at one instant, as a rail adds it.
func drawAt(c power.Component, now time.Time) float64 {
	var v [1]float64
	c.AddMA(now, 0, v[:])
	return v[0]
}
