package remote

// BaseURL reports the server URL the client dials.
func (p *Platform) BaseURL() string { return p.base.String() }
