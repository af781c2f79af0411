package remote

import "context"

// BaseURL reports the server URL the client dials.
func (p *Platform) BaseURL() string { return p.base.String() }

// Abort is the HTTP port's Abort: what a handle's Cancel sends.
func (p *Platform) Abort(ctx context.Context, build int) error { return port{p}.Abort(ctx, build) }
