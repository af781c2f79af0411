package remote

// BaseURL reports the server URL the client dials.
func (p *Platform) BaseURL() string { return p.base.String() }

// Sessions returns the campaign's per-build sessions in spec order.
func (c *Campaign) Sessions() []*Session { return c.sessions }
