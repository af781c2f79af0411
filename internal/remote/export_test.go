package remote

import "batterylab/internal/samples"

// BaseURL reports the server URL the client dials.
func (p *Platform) BaseURL() string { return p.base.String() }

// Live reports the client-side streaming summary of the live samples
// received so far (mean/P50/P95/charge over the live feed's cadence —
// an estimate of the monitor-side summary a local session exposes).
func (s *Session) Live() samples.LiveSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Sessions returns the campaign's per-build sessions in spec order.
func (c *Campaign) Sessions() []*Session { return c.sessions }
