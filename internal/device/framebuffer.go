package device

import (
	"sync"

	"batterylab/internal/power"
)

// Framebuffer tracks display pipeline activity: how many frames per
// second actually change and what fraction of pixels each change touches.
// The screen-mirroring agent (internal/mirror) reads this to decide how
// much it must encode — the paper's observation that the encoder load
// rises "when the screen content changes quickly versus the fixed phone's
// home screen" falls out of this coupling.
//
// The framebuffer also owns the hardware video decoder block, lit during
// mp4 playback.
type Framebuffer struct {
	mu         sync.Mutex
	fps        float64 // changed frames per second [0, 60]
	changeFrac float64 // fraction of pixels changing per changed frame [0, 1]

	decoder *power.Switched
}

func newFramebuffer() *Framebuffer {
	// hardware H.264 decode block
	return &Framebuffer{decoder: power.NewSwitched(power.NewConstant("video-decoder", 18))}
}

// SetActivity declares the display change rate: fps changed frames per
// second, each touching changeFrac of the screen. Values are clamped to
// valid ranges.
func (fb *Framebuffer) SetActivity(fps, changeFrac float64) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.fps = clamp(fps, 0, 60)
	fb.changeFrac = clamp(changeFrac, 0, 1)
}

// Activity reports the current change rate.
func (fb *Framebuffer) Activity() (fps, changeFrac float64) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.fps, fb.changeFrac
}

// UpdateRate reports the effective full-frame-equivalents per second:
// fps × changeFrac. A paused video reports 0; 30 fps full-screen video
// reports 30.
func (fb *Framebuffer) UpdateRate() float64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.fps * fb.changeFrac
}

// Decoder exposes the hardware decode block's gate (the video app turns
// it on while playing).
func (fb *Framebuffer) Decoder() *power.Switched { return fb.decoder }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
