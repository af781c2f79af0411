package mirror

import (
	"math"
	"testing"
	"time"

	"batterylab/internal/adb"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/stats"
	"batterylab/internal/usb"
	"batterylab/internal/video"
	"batterylab/internal/wifi"
)

type rig struct {
	clk *simclock.Virtual
	dev *device.Device
	srv *adb.Server
}

func newRig(t *testing.T, apiLevel int) *rig {
	t.Helper()
	clk := simclock.NewVirtual()
	dev, err := device.New(clk, device.Config{Seed: 1, APILevel: apiLevel})
	if err != nil {
		t.Fatal(err)
	}
	hub := usb.NewHub(2)
	hub.Attach(0, dev)
	ap := wifi.NewAP("blab", wifi.ModeNAT)
	ap.Connect(dev)
	srv := adb.NewServer(hub, ap)
	srv.Register(dev)
	return &rig{clk: clk, dev: dev, srv: srv}
}

func TestAgentRequiresAPILevel(t *testing.T) {
	r := newRig(t, 19) // Android 4.4
	a := NewAgent(r.dev, nil, 0)
	if err := a.Start(r.srv); err == nil {
		t.Fatal("agent started on API 19")
	}
}

func TestAgentRequiresADB(t *testing.T) {
	r := newRig(t, 26)
	r.dev.Shutdown() // ADB offline
	a := NewAgent(r.dev, nil, 0)
	if err := a.Start(r.srv); err == nil {
		t.Fatal("agent started without ADB")
	}
}

func TestAgentAddsEncoderLoad(t *testing.T) {
	r := newRig(t, 26)
	// Playing video: 30 updates/s.
	r.dev.Storage().Push("/sdcard/v.mp4", video.SampleMP4(1024))
	p := video.NewPlayer("/sdcard/v.mp4")
	r.dev.Install(p)
	r.dev.LaunchApp(video.PackageName)

	r.clk.Advance(2 * time.Second)
	before := r.dev.CPU().UtilAt(r.clk.Now())
	a := NewAgent(r.dev, nil, 0)
	if err := a.Start(r.srv); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * time.Second)
	after := r.dev.CPU().UtilAt(r.clk.Now())
	// Encoder at 30 ups: 2.5 + 7.5 = ~10 %.
	if after-before < 6 || after-before > 15 {
		t.Fatalf("encoder load delta = %.1f, want ~10", after-before)
	}
	a.Stop()
	r.clk.Advance(time.Second)
	if r.dev.CPU().FindProcess("scrcpy-agent") != nil {
		t.Fatal("agent process survived stop")
	}
}

func TestAgentBitrateCapBoundsUpload(t *testing.T) {
	r := newRig(t, 26)
	r.dev.Storage().Push("/sdcard/v.mp4", video.SampleMP4(1024))
	p := video.NewPlayer("/sdcard/v.mp4")
	r.dev.Install(p)
	r.dev.LaunchApp(video.PackageName)

	a := NewAgent(r.dev, nil, 1.0)
	a.Start(r.srv)
	const dur = 60 * time.Second
	r.clk.Advance(dur)
	sent := a.BytesSent()
	// 30 ups × 80 kbit = 2.4 Mbps raw, capped at 1 Mbps → 7.5 MB/min.
	capBytes := int64(1e6 / 8 * dur.Seconds())
	if sent > capBytes+capBytes/100 {
		t.Fatalf("sent %d > cap %d", sent, capBytes)
	}
	if sent < capBytes*9/10 {
		t.Fatalf("sent %d, want near cap %d for full-rate video", sent, capBytes)
	}
}

func TestAgentIdleScreenSendsLittle(t *testing.T) {
	r := newRig(t, 26)
	a := NewAgent(r.dev, nil, 1.0)
	a.Start(r.srv)
	r.clk.Advance(time.Minute)
	// Home screen: no updates → no stream bytes.
	if sent := a.BytesSent(); sent != 0 {
		t.Fatalf("idle screen sent %d bytes", sent)
	}
}

func TestSessionLifecycleAndSink(t *testing.T) {
	r := newRig(t, 26)
	s := NewSession(r.dev, r.srv, 99)
	if s.Active() {
		t.Fatal("session starts active")
	}
	if err := s.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(0); err == nil {
		t.Fatal("double start accepted")
	}
	// Drive some screen activity.
	r.dev.Framebuffer().SetActivity(30, 1)
	r.clk.Advance(10 * time.Second)
	in, out := s.VNC().Traffic()
	if in == 0 || out == 0 {
		t.Fatal("no stream traffic")
	}
	if out >= in {
		t.Fatalf("noVNC output %d should compress below input %d", out, in)
	}
	s.Stop()
	if s.Active() {
		t.Fatal("still active")
	}
	s.Stop() // idempotent
}

func TestVNCLoadModel(t *testing.T) {
	clk := simclock.NewVirtual()
	v := NewVNCServer(5)
	if v.LoadPercent(clk.Now()) != 0 {
		t.Fatal("idle VNC has load")
	}
	v.Activate()
	v.OnSegment(20, 1000) // browser-load-like update rate
	var samples []float64
	for i := 0; i < 200; i++ {
		clk.Advance(200 * time.Millisecond)
		samples = append(samples, v.LoadPercent(clk.Now()))
	}
	med := stats.Quantile(samples, 0.5)
	if med < 45 || med > 70 {
		t.Fatalf("live median load = %.1f, want 45-70 (controller adds base+polling)", med)
	}
	v.Deactivate()
	if v.LoadPercent(clk.Now()) != 0 {
		t.Fatal("deactivated VNC has load")
	}
	if v.MemoryMB() != 0 {
		t.Fatal("deactivated VNC has memory")
	}
}

func TestLatencyProbeMatchesPaper(t *testing.T) {
	p := NewLatencyProbe(42, time.Millisecond)
	samples := p.Measure(40)
	mean := stats.Mean(samples)
	std := stats.Std(samples)
	if math.Abs(mean-1.44) > 0.12 {
		t.Fatalf("latency mean = %.3f s, paper 1.44", mean)
	}
	if std < 0.04 || std > 0.25 {
		t.Fatalf("latency std = %.3f s, paper 0.12", std)
	}
}

func TestLatencyGrowsWithRTT(t *testing.T) {
	near := NewLatencyProbe(1, time.Millisecond)
	far := NewLatencyProbe(1, 150*time.Millisecond)
	nm := stats.Mean(near.Measure(100))
	fm := stats.Mean(far.Measure(100))
	if fm <= nm {
		t.Fatalf("latency should grow with RTT: %.3f vs %.3f", nm, fm)
	}
}
