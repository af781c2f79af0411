package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

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
	var resp api.SubmitResponse
	if err := p.doJSON(ctx, http.MethodPost, p.url("/api/v1/experiments"), spec, &resp); err != nil {
		return nil, err
	}
	return p.followRelay(ctx, resp.Build, sink)
}

// followRelay attaches the relay streams to a submitted peer build and
// resolves its terminal status.
func (p *Platform) followRelay(ctx context.Context, build int, sink api.RelaySink) (*api.BuildStatus, error) {
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.relayEvents(sctx, build, sink) }()
	go func() { defer wg.Done(); p.relaySamples(sctx, build, sink) }()
	wg.Wait()

	if ctx.Err() != nil {
		// The home scheduler reclaimed the attempt (abort, failover):
		// propagate the cancel so the peer tears the measurement down
		// instead of running an orphan. Best effort on a fresh context —
		// the canceled one cannot carry a request.
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.doJSONIdempotent(cctx, http.MethodPost, p.url("/api/v1/builds/%d/cancel", build), nil, nil)
		return nil, ctx.Err()
	}
	st, err := p.relayTerminal(ctx, build)
	if err != nil {
		return nil, err
	}
	if st.State == "success" {
		// The home server serves this build's artifact and analytics
		// reads from its own workspace: copy the peer's terminal
		// artifacts home before reporting success. A peer that vanishes
		// here is a relay failure — the home failover budget decides.
		if err := p.relayArtifacts(ctx, build, sink); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// relayArtifacts copies the remote build's workspace (current trace,
// CPU CSVs, logs) into the sink, byte for byte.
func (p *Platform) relayArtifacts(ctx context.Context, build int, sink api.RelaySink) error {
	var names []string
	if err := p.doJSONIdempotent(ctx, http.MethodGet, p.url("/api/v1/builds/%d/artifacts", build), nil, &names); err != nil {
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

// relayEvents streams the peer build's NDJSON events into the sink,
// resuming a dropped connection from the last seen Seq. An epoch reset
// (the peer restarted and recovered the build) restarts the cursor:
// the recovered build re-executes, so its feed is a fresh capture.
func (p *Platform) relayEvents(ctx context.Context, build int, sink api.RelaySink) {
	cursor := 0
	p.runStream(ctx, build, "/api/v1/builds/%d/events",
		func() int { return cursor },
		func() { cursor = 0 },
		func(r io.Reader) bool {
			dec := json.NewDecoder(r)
			progressed := false
			for {
				var ev api.BuildEvent
				if err := dec.Decode(&ev); err != nil {
					return progressed
				}
				progressed = true
				cursor = ev.Seq + 1
				sink.Event(ev)
			}
		})
}

// relaySamples streams the peer build's binary sample frames into the
// sink, counting points for the resume cursor.
func (p *Platform) relaySamples(ctx context.Context, build int, sink api.RelaySink) {
	cursor := 0
	p.runStream(ctx, build, "/api/v1/builds/%d/samples",
		func() int { return cursor },
		func() { cursor = 0 },
		func(r io.Reader) bool {
			br := bufio.NewReader(r)
			progressed := false
			for {
				pts, err := api.ReadSampleFrame(br)
				if err != nil {
					return progressed
				}
				progressed = true
				for _, pt := range pts {
					cursor++
					sink.Sample(pt)
				}
			}
		})
}

// relayTerminal polls the peer build until it leaves the queued/running
// states. The streams end exactly at finish in the common case, so the
// first poll usually answers; the loop covers stream teardown racing
// the state transition. An expired or still-running build is a relay
// failure — the home scheduler's failover budget decides what happens.
func (p *Platform) relayTerminal(ctx context.Context, build int) (*api.BuildStatus, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := p.BuildStatus(ctx, build)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "success", "failure", "aborted":
			return &st, nil
		case api.StateExpired:
			return nil, fmt.Errorf("remote: relayed build %d expired on the peer before its status was read", build)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("remote: relayed build %d still %s after its streams closed", build, st.State)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
