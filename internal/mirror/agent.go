// Package mirror implements BatteryLab's device mirroring pipeline
// (§3.2): a scrcpy-like agent on the device captures and encodes the
// screen (H.264-style, bitrate-capped at 1 Mbps as in the paper), streams
// it over WiFi to the controller, where a VNC server re-encodes it for
// noVNC browser clients; a small HTTP GUI backend carries the toolbar and
// input events back toward the device through ADB.
//
// The pipeline's measured costs are emergent from this model: the agent's
// encoder load adds ~5 % device CPU under the browser workload (Fig. 4)
// and ~60 mA during video playback (Fig. 2); upload volume lands around
// 32 MB per 7-minute test against the 50 MB cap bound (§4.2); and the
// controller-side transcode drives the Pi's CPU from a flat 25 % to a
// ~75 % median (Fig. 5).
package mirror

import (
	"fmt"
	"sync"
	"time"

	"batterylab/internal/adb"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

// Encoder parameters.
const (
	// DefaultBitrateMbps is scrcpy's configured video bitrate cap; the
	// paper sets 1 Mbps.
	DefaultBitrateMbps = 1.0
	// bitsPerUpdate is the encoded size of one full-frame-equivalent
	// change before the cap (H.264 at the J7's resolution).
	bitsPerUpdate = 80_000
	// agentTick is the streaming granularity.
	agentTick = 250 * time.Millisecond
	// localLinkMbps is the device→controller WiFi hop rate used for the
	// stream's chunked uploads.
	localLinkMbps = 45.0
	// MinAPILevel: Android mirroring needs API 21+ (§3.2).
	MinAPILevel = 21
)

// agentProcName is the on-device encoder process.
const agentProcName = "scrcpy-agent"

// FrameSink receives the agent's encoded output — implemented by the
// controller-side VNC server.
type FrameSink interface {
	OnSegment(updateRate float64, bytes int64)
}

// Agent is the device-side capture/encode/stream process.
type Agent struct {
	dev         *device.Device
	sink        FrameSink
	bitrateMbps float64

	mu        sync.Mutex
	running   bool
	proc      *device.Process
	ticker    *simclock.Ticker
	bytesSent int64
}

// NewAgent builds an agent for dev streaming to sink at the given bitrate
// cap (0 means DefaultBitrateMbps).
func NewAgent(dev *device.Device, sink FrameSink, bitrateMbps float64) *Agent {
	if bitrateMbps <= 0 {
		bitrateMbps = DefaultBitrateMbps
	}
	return &Agent{dev: dev, sink: sink, bitrateMbps: bitrateMbps}
}

// Start launches the on-device agent. Mirroring requires ADB (scrcpy runs
// atop it): the caller passes the ADB server so availability and the API
// level gate are enforced exactly where the real platform fails.
func (a *Agent) Start(srv *adb.Server) error {
	if a.dev.Config().OS != "android" {
		return fmt.Errorf("mirror: device mirroring is Android-only (got %s)", a.dev.Config().OS)
	}
	if a.dev.Config().APILevel < MinAPILevel {
		return fmt.Errorf("mirror: device API %d < %d", a.dev.Config().APILevel, MinAPILevel)
	}
	if srv != nil {
		if _, err := srv.Shell(a.dev.Serial(), "echo scrcpy-start"); err != nil {
			return fmt.Errorf("mirror: ADB channel required: %w", err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return fmt.Errorf("mirror: agent already running on %s", a.dev.Serial())
	}
	a.running = true
	a.proc = a.dev.CPU().StartProcess(agentProcName)
	a.proc.SetMemMB(48)
	a.ticker = simclock.NewTicker(a.dev.Clock(), agentTick, a.tick)
	a.dev.Logcat().Append("scrcpy", device.Info, "agent started")
	return nil
}

// tick encodes one segment: reads the framebuffer change rate, applies
// the bitrate cap, accounts the upload and the encoder CPU, and hands
// the segment to the sink.
func (a *Agent) tick(now time.Time) {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return
	}
	proc := a.proc
	sink := a.sink
	cap := a.bitrateMbps
	a.mu.Unlock()

	rate := a.dev.Framebuffer().UpdateRate()
	// Encoder CPU: fixed capture cost plus per-update encode cost. The
	// cap also bounds CPU (the encoder degrades quality, not speed).
	encUtil := 2.5 + 0.25*rate
	if encUtil > 2.5+0.25*40 {
		encUtil = 2.5 + 0.25*40
	}
	proc.SetLoad(encUtil, 0.8)

	bps := rate * bitsPerUpdate
	if bps > cap*1e6 {
		bps = cap * 1e6
	}
	segBytes := int64(bps * agentTick.Seconds() / 8)
	if segBytes > 0 {
		a.dev.WiFi().Transfer(segBytes, localLinkMbps, true)
	}
	a.mu.Lock()
	a.bytesSent += segBytes
	a.mu.Unlock()
	if sink != nil {
		sink.OnSegment(rate, segBytes)
	}
}

// Stop terminates the agent process.
func (a *Agent) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.running {
		return
	}
	a.running = false
	a.ticker.Stop()
	a.dev.CPU().KillByName(agentProcName)
	a.proc = nil
	a.dev.Logcat().Append("scrcpy", device.Info, "agent stopped")
}

// BytesSent reports the cumulative encoded upload volume.
func (a *Agent) BytesSent() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytesSent
}
