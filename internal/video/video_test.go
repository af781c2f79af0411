package video

import (
	"testing"
	"time"

	"batterylab/internal/device"
	"batterylab/internal/power"
	"batterylab/internal/simclock"
)

func setup(t *testing.T) (*device.Device, *simclock.Virtual, *Player) {
	t.Helper()
	clk := simclock.NewVirtual()
	d, err := device.New(clk, device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlayer("/sdcard/test.mp4")
	if err := d.Install(p); err != nil {
		t.Fatal(err)
	}
	return d, clk, p
}

func TestLaunchRequiresFile(t *testing.T) {
	d, _, _ := setup(t)
	if err := d.LaunchApp(PackageName); err == nil {
		t.Fatal("launch without media file accepted")
	}
}

func TestPlaybackDrivesPipeline(t *testing.T) {
	d, clk, _ := setup(t)
	d.Storage().Push("/sdcard/test.mp4", SampleMP4(1<<20))
	if err := d.LaunchApp(PackageName); err != nil {
		t.Fatal(err)
	}
	if rate := d.Framebuffer().UpdateRate(); rate != 30 {
		t.Fatalf("update rate = %v, want 30", rate)
	}
	if !d.Framebuffer().Decoder().On() {
		t.Fatal("decoder off during playback")
	}
	if d.CPU().FindProcess(PackageName) == nil {
		t.Fatal("player process missing")
	}
	// Playback draw should exceed idle draw by the decoder + player CPU.
	clk.Advance(time.Second)
	playing := power.At(d, clk.Now())
	d.StopApp(PackageName)
	clk.Advance(time.Second)
	stopped := power.At(d, clk.Now())
	if playing-stopped < 15 {
		t.Fatalf("playback delta too small: %v vs %v", playing, stopped)
	}
	if d.Framebuffer().UpdateRate() != 0 {
		t.Fatal("framebuffer active after stop")
	}
}

func TestTapTogglesPause(t *testing.T) {
	d, _, _ := setup(t)
	d.Storage().Push("/sdcard/test.mp4", SampleMP4(1024))
	d.LaunchApp(PackageName)
	d.Input(device.InputEvent{Kind: device.InputTap})
	if d.Framebuffer().UpdateRate() != 0 {
		t.Fatal("tap did not pause")
	}
	d.Input(device.InputEvent{Kind: device.InputTap})
	if d.Framebuffer().UpdateRate() != 30 {
		t.Fatal("tap did not resume")
	}
	// Non-tap input ignored.
	d.Input(device.InputEvent{Kind: device.InputKey, Key: "K"})
	if d.Framebuffer().UpdateRate() != 30 {
		t.Fatal("key press paused playback")
	}
}

func TestSampleMP4Magic(t *testing.T) {
	b := SampleMP4(64)
	if len(b) != 64 || string(b[4:10]) != "ftypmp" {
		t.Fatalf("magic = %q", b[:12])
	}
}
