// Package netem is BatteryLab's network path emulator. The platform's
// "location, location, location" experiments (§4.3) need network paths
// with controlled bandwidth and latency — the paper uses ProtonVPN exits;
// this emulator provides the link model those tunnels (internal/vpn) and
// the vantage point's WiFi access point (internal/wifi) are built from.
//
// The model is analytic rather than packet-level: a link has download and
// upload capacity, a propagation RTT and a loss rate, and answers
// questions like "how long does an N-byte transfer take" and "what
// throughput would a speedtest measure". That is the fidelity the paper's
// experiments consume (transfer durations drive radio power; measured
// Mbps fill Table 2).
package netem

import (
	"fmt"
	"time"

	"batterylab/internal/rng"
)

// Link is one network hop.
type Link struct {
	// Name identifies the hop ("wifi-ap", "vpn-johannesburg").
	Name string
	// DownMbps and UpMbps are usable capacities in megabits per second.
	DownMbps float64
	UpMbps   float64
	// RTT is the round-trip propagation delay contributed by this hop.
	RTT time.Duration
	// Loss is the packet loss probability in [0, 1). Loss inflates
	// effective transfer time via a simple goodput model.
	Loss float64
}

// Validate reports whether the link parameters are physical.
func (l Link) Validate() error {
	if l.DownMbps <= 0 || l.UpMbps <= 0 {
		return fmt.Errorf("netem: link %s: non-positive capacity", l.Name)
	}
	if l.RTT < 0 {
		return fmt.Errorf("netem: link %s: negative RTT", l.Name)
	}
	if l.Loss < 0 || l.Loss >= 1 {
		return fmt.Errorf("netem: link %s: loss %v outside [0,1)", l.Name, l.Loss)
	}
	return nil
}

// Path is a sequence of links between the device and an origin server.
// End-to-end capacity is the bottleneck hop; RTT and loss compose.
type Path struct {
	links []Link
}

// NewPath composes hops into a path.
func NewPath(links ...Link) (*Path, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("netem: empty path")
	}
	for _, l := range links {
		if err := l.Validate(); err != nil {
			return nil, err
		}
	}
	return &Path{links: append([]Link{}, links...)}, nil
}

// Append returns a new path extended with more hops.
func (p *Path) Append(links ...Link) (*Path, error) {
	return NewPath(append(append([]Link{}, p.links...), links...)...)
}

// Hops reports the number of links.
func (p *Path) Hops() int { return len(p.links) }

// AppendPath returns a new path that traverses p and then q.
func (p *Path) AppendPath(q *Path) (*Path, error) {
	return p.Append(q.links...)
}

// DownMbps reports the end-to-end download capacity (bottleneck).
func (p *Path) DownMbps() float64 {
	min := p.links[0].DownMbps
	for _, l := range p.links[1:] {
		if l.DownMbps < min {
			min = l.DownMbps
		}
	}
	return min
}

// UpMbps reports the end-to-end upload capacity (bottleneck).
func (p *Path) UpMbps() float64 {
	min := p.links[0].UpMbps
	for _, l := range p.links[1:] {
		if l.UpMbps < min {
			min = l.UpMbps
		}
	}
	return min
}

// RTT reports the end-to-end round-trip time.
func (p *Path) RTT() time.Duration {
	var total time.Duration
	for _, l := range p.links {
		total += l.RTT
	}
	return total
}

// Loss reports the end-to-end loss probability (independent hops).
func (p *Path) Loss() float64 {
	pass := 1.0
	for _, l := range p.links {
		pass *= 1 - l.Loss
	}
	return 1 - pass
}

// goodputFactor approximates TCP's efficiency over a lossy path.
func (p *Path) goodputFactor() float64 {
	return 1 - 2.5*p.Loss()
}

// TransferTime estimates how long moving n bytes takes in the given
// direction, including one connection-establishment RTT and slow-start
// ramp (modelled as one extra RTT per 10x of data beyond 64 KB).
func (p *Path) TransferTime(n int64, download bool) time.Duration {
	if n <= 0 {
		return 0
	}
	mbps := p.UpMbps()
	if download {
		mbps = p.DownMbps()
	}
	gp := p.goodputFactor()
	if gp < 0.1 {
		gp = 0.1
	}
	secs := float64(n*8) / (mbps * gp * 1e6)
	rtts := 1
	for sz := int64(64 * 1024); sz < n; sz *= 10 {
		rtts++
	}
	return time.Duration(secs*float64(time.Second)) + time.Duration(rtts)*p.RTT()
}

// EffectiveMbps reports the throughput a bulk transfer of n bytes
// achieves including handshake overhead — what a speedtest observes.
func (p *Path) EffectiveMbps(n int64, download bool) float64 {
	d := p.TransferTime(n, download)
	if d <= 0 {
		return 0
	}
	return float64(n*8) / 1e6 / d.Seconds()
}

// Jittered returns a copy of the path with capacities and RTT perturbed
// by the given fractional jitter, drawn from r — one "network weather"
// realization for a measurement run.
func (p *Path) Jittered(r *rng.RNG, frac float64) *Path {
	links := make([]Link, len(p.links))
	for i, l := range p.links {
		l.DownMbps = r.Jitter(l.DownMbps, frac)
		l.UpMbps = r.Jitter(l.UpMbps, frac)
		l.RTT = time.Duration(r.Jitter(float64(l.RTT), frac))
		links[i] = l
	}
	return &Path{links: links}
}
