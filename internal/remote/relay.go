package remote

import (
	"context"
	"fmt"
	"net/http"

	"batterylab/internal/api"
)

// Federation relay: the client-side half of cross-server build
// routing. When an access server's scheduler places a build on a
// vantage point advertised by a federated peer, it hands the wire spec
// to Relay (wired in as accessserver.PeerRelay by the daemon), which
// submits it to the peer as a plain v1 experiment, streams the remote
// build's events and samples back into the home feed, and returns the
// terminal status. Nothing here is federation-specific protocol — it
// is the same v1 surface any remote client speaks, authenticated with
// the shared cluster token instead of a user token.

// Relay runs one experiment spec on the peer access server at peerURL
// on behalf of a home server: submit, stream events and samples into
// sink until the remote build settles, fetch and return its terminal
// status. A non-nil error means the relay itself broke — submission
// rejected (*api.Error), connection lost, ctx canceled — not that the
// experiment failed; failure comes back as a status with State
// "failure". Cancelling ctx cancels the remote build (best effort)
// before returning.
func Relay(ctx context.Context, peerURL, token string, spec api.ExperimentSpec, sink api.RelaySink) (*api.BuildStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := Dial(peerURL, token)
	if err != nil {
		return nil, err
	}
	peer := port{p}
	build, err := peer.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	// An epoch reset (the peer restarted and recovered the build) needs
	// no Restart: the recovered build re-executes, its feed is a fresh
	// capture, and the sink takes it as it comes.
	err = peer.Follow(ctx, build, sink.Event, sink.Sample)
	if ctx.Err() != nil {
		// The home scheduler reclaimed the attempt (abort, failover):
		// propagate the cancel so the peer tears the measurement down
		// instead of running an orphan. Best effort on a fresh context —
		// the canceled one cannot carry a request.
		_ = peer.Abort(context.Background(), build)
		return nil, ctx.Err()
	}
	// A broken stream, or an expired or still-running build, is a relay
	// failure — the home scheduler's failover budget decides what happens.
	if err != nil {
		return nil, err
	}
	st, err := p.BuildStatus(ctx, build)
	switch {
	case err != nil:
		return nil, err
	case !st.Terminal():
		return nil, fmt.Errorf("remote: relayed build %d still %s after its streams ended", build, st.State)
	case st.State == api.StateExpired:
		return nil, fmt.Errorf("remote: relayed build %d expired on the peer before its status was read", build)
	case st.State == "success":
		// The home server serves this build's artifact and analytics
		// reads from its own workspace: copy the peer's terminal
		// artifacts home before reporting success. A peer that vanishes
		// here is a relay failure — the home failover budget decides.
		if err := p.relayArtifacts(ctx, build, sink); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// relayArtifacts copies the remote build's workspace (current trace,
// CPU traces, logs) into the sink, byte for byte.
func (p *Platform) relayArtifacts(ctx context.Context, build int, sink api.RelaySink) error {
	var names []string
	if err := p.doJSON(ctx, http.MethodGet, p.url("/api/v1/builds/%d/artifacts", build), nil, &names); err != nil {
		return fmt.Errorf("remote: listing relayed build %d's artifacts: %w", build, err)
	}
	for _, name := range names {
		data, err := p.Artifact(ctx, build, name)
		if err != nil {
			return fmt.Errorf("remote: fetching relayed artifact %q: %w", name, err)
		}
		sink.Artifact(name, data)
	}
	return nil
}
