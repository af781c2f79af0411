package mirror

import (
	"sync"
	"time"

	"batterylab/internal/rng"
)

// noVNCCompression is the extra compression noVNC applies on top of the
// already-encoded stream (§4.2: 32 MB observed vs the ~50 MB 1 Mbps
// bound).
const noVNCCompression = 0.85

// VNCServer is the controller-side half of the pipeline: it receives the
// agent's stream and transcodes it into the VNC session that noVNC
// clients watch; their input reaches the device through the GUI
// backend's /api/input. Its CPU cost is the dominant controller-side
// expense of mirroring (Fig. 5).
type VNCServer struct {
	noise *rng.RNG

	mu         sync.Mutex
	active     bool
	updateRate float64 // latest observed full-frame-equivalents/sec
	bytesIn    int64
	bytesOut   int64
}

// NewVNCServer returns an idle server.
func NewVNCServer(seed uint64) *VNCServer {
	return &VNCServer{noise: rng.New(seed).Fork("vnc")}
}

// Activate marks a mirroring session live (tigervnc + noVNC processes
// up).
func (v *VNCServer) Activate() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.active = true
}

// Deactivate tears the session down.
func (v *VNCServer) Deactivate() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.active = false
	v.updateRate = 0
}

// OnSegment implements FrameSink.
func (v *VNCServer) OnSegment(updateRate float64, bytes int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.active {
		return
	}
	v.updateRate = updateRate
	v.bytesIn += bytes
	v.bytesOut += int64(float64(bytes) * noVNCCompression)
}

// Traffic reports cumulative stream bytes (from device, to viewers).
func (v *VNCServer) Traffic() (in, out int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bytesIn, v.bytesOut
}

// LoadPercent reports the mirroring stack's controller CPU share at the
// given instant: zero when idle; when live, a substantial fixed cost
// (scrcpy receiver + X server + VNC encode) plus a per-update cost, with
// sampling noise — calibrated to Fig. 5's ~75 % median and >95 % top
// decile under the browser workload.
func (v *VNCServer) LoadPercent(now time.Time) float64 {
	v.mu.Lock()
	active := v.active
	rate := v.updateRate
	v.mu.Unlock()
	if !active {
		return 0
	}
	const epoch = 200 * time.Millisecond
	e := now.UnixNano() / int64(epoch)
	draw := v.noise.At("load", e)
	// A live session keeps scrcpy's receiver, the X server and the VNC
	// encoder busy even on a quiet screen; per-update encode cost comes
	// on top.
	load := 46 + 0.9*rate + draw.Normal(0, 5)
	// Keyframe/assembly bursts: occasional expensive segments push the
	// stack toward saturation — the paper's ">95 % in 10 % of samples".
	if draw.Bool(0.08) {
		load += 18
	}
	if load < 0 {
		load = 0
	}
	if load > 100 {
		load = 100
	}
	return load
}

// MemoryMB reports the mirroring stack's controller memory when live
// (tigervnc + noVNC + scrcpy receiver): the paper's "extra 6 %" of the
// Pi's 1 GB.
func (v *VNCServer) MemoryMB() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.active {
		return 0
	}
	return 62
}
