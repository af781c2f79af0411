// Package remote is the client side of BatteryLab's v1 remote
// execution API: a location-transparent mirror of the in-process
// experiment runner. remote.Platform speaks the wire protocol of
// internal/api against an access server's /api/v1/ routes, and its
// sessions expose the same Start/Wait/Cancel/Observer shape as
// core.Session — experiments written against the shared backend
// interface in the batterylab facade run unchanged whether the
// platform is in this address space or across the network.
//
// A remote session's life:
//
//  1. StartExperiment POSTs the declarative spec; the server compiles
//     it against its workload registry and queues a build.
//  2. Two streams follow the build: NDJSON phase events
//     (/builds/{id}/events) and live power samples
//     (/builds/{id}/samples, length-prefixed binary trace frames).
//     Observers receive the same PhaseChange/Sample callbacks a local
//     session would deliver; Sample.Live is re-aggregated client-side
//     from the live feed.
//  3. When the build finishes, the session fetches the run summary and
//     the workspace artifacts — the full binary current trace plus the
//     CPU CSVs — and reconstructs a *core.Result. Because the binary
//     codec is lossless and the streaming aggregators are recomputed
//     in append order, Summary().Mean and EnergyMAH are bit-identical
//     to the server's (and to a local run of the same spec).
//
// The client is resilient to transient failures: idempotent requests
// retry with exponential backoff and jitter (see RetryPolicy), and a
// dropped event or sample stream reconnects from its resume cursor
// (?from=) instead of silently losing the tail. Submission POSTs never
// auto-retry — a retried submit could double-queue a build.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/samples"
	"batterylab/internal/trace"
)

// Platform is a client handle to a remote access server. It is safe
// for concurrent use; every session it starts shares its HTTP client.
type Platform struct {
	base  *url.URL
	token string
	hc    *http.Client
	retry RetryPolicy

	// Resilience counters, shared by every session (see Stats).
	requestRetries   atomic.Int64
	streamReconnects atomic.Int64
	epochResets      atomic.Int64
}

// ClientStats counts the client's recoveries so far: how often requests
// were retried, streams reconnected from their resume cursors, and
// resume state was reset because the server restarted (feed epoch
// moved). All zeros is a healthy network; growth quantifies the
// flakiness the retry machinery is absorbing.
type ClientStats struct {
	RequestRetries   int64 `json:"request_retries"`
	StreamReconnects int64 `json:"stream_reconnects"`
	EpochResets      int64 `json:"epoch_resets"`
}

// Stats snapshots the client's resilience counters.
func (p *Platform) Stats() ClientStats {
	return ClientStats{
		RequestRetries:   p.requestRetries.Load(),
		StreamReconnects: p.streamReconnects.Load(),
		EpochResets:      p.epochResets.Load(),
	}
}

// RetryPolicy tunes the client's resilience to transient failures:
// idempotent requests (GETs, cancels) retry on network errors and
// gateway-class statuses (502/503/504) with exponential backoff plus
// jitter, and the event/sample streams reconnect from their resume
// cursors under the same budget. Submission POSTs never auto-retry —
// a retried submit could double-queue a build.
type RetryPolicy struct {
	// Attempts is the total tries per request (and the consecutive
	// reconnect budget per stream). Minimum 1.
	Attempts int
	// BaseDelay is the first backoff, doubling per retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff before jitter.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is what Dial installs.
var DefaultRetryPolicy = RetryPolicy{Attempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// Dial validates the server URL and returns a client bound to the
// bearer token. No connection is made until the first request.
func Dial(server, token string) (*Platform, error) {
	u, err := url.Parse(server)
	if err != nil {
		return nil, fmt.Errorf("remote: parsing server URL %q: %w", server, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("remote: server URL %q needs an http(s) scheme", server)
	}
	return &Platform{base: u, token: token, hc: &http.Client{}, retry: DefaultRetryPolicy}, nil
}

// SetRetryPolicy replaces the client's retry policy. Call before
// starting sessions.
func (p *Platform) SetRetryPolicy(rp RetryPolicy) {
	if rp.Attempts < 1 {
		rp.Attempts = 1
	}
	p.retry = rp
}

// delay computes the jittered backoff before retry attempt n (1-based)
// — the one place it is computed, for requests and for every stream
// follower (a session, the federation relay, the feed gateway) alike:
// BaseDelay doubling per attempt, capped at MaxDelay, scaled by a random
// factor in [0.5, 1.5) so a fleet of reconnecting streams does not
// thunder back in lockstep. Doubling by repeated shift-with-cap rather
// than one big shift keeps a large Attempts from overflowing into a
// negative (instant) delay.
func (rp RetryPolicy) delay(n int) time.Duration {
	d := rp.BaseDelay
	if d <= 0 {
		// A partial policy (only Attempts set) must still back off, not
		// hammer a struggling server with zero-delay retries.
		d = DefaultRetryPolicy.BaseDelay
	}
	max := rp.MaxDelay
	if max <= 0 {
		max = time.Minute
	}
	for i := 1; i < n && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// sleep waits out delay(n) before attempt n, honoring ctx. Reports
// false when ctx ended first.
func (rp RetryPolicy) sleep(ctx context.Context, n int) bool {
	t := time.NewTimer(rp.delay(n))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// transientStatus reports whether an HTTP status is worth retrying:
// gateway-class failures that say "the server did not handle this",
// not application errors.
func transientStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// SetHTTPClient swaps the underlying HTTP client (custom TLS,
// timeouts). Call before starting sessions.
func (p *Platform) SetHTTPClient(hc *http.Client) { p.hc = hc }

// BaseURL reports the server URL the client dials.
func (p *Platform) BaseURL() string { return p.base.String() }

// url joins the base with a formatted path.
func (p *Platform) url(format string, args ...any) string {
	ref := &url.URL{Path: fmt.Sprintf(format, args...)}
	return p.base.ResolveReference(ref).String()
}

// doJSON performs one request/response round trip, retrying transient
// failures (network errors, 502/503/504, a body cut short) with backoff
// for idempotent requests — GETs, plus POSTs the caller marks
// idempotent via doJSONIdempotent (cancel is; submit is not, since a
// retried submit could double-queue a build). The response body is
// decoded as JSON into out, or kept whole when out is a *[]byte. A
// non-2xx response is decoded as the api.Error envelope (synthesized
// from the bare status when the body is not an envelope) and returned
// as *api.Error.
func (p *Platform) doJSON(ctx context.Context, method, u string, in, out any) error {
	return p.do(ctx, method, u, in, out, method == http.MethodGet)
}

// doJSONIdempotent is doJSON with retries enabled regardless of
// method, for POSTs that are safe to repeat (cancel).
func (p *Platform) doJSONIdempotent(ctx context.Context, method, u string, in, out any) error {
	return p.do(ctx, method, u, in, out, true)
}

func (p *Platform) do(ctx context.Context, method, u string, in, out any, idempotent bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("remote: encoding request: %w", err)
		}
		payload = data
	}
	attempts := p.retry.Attempts
	if !idempotent || attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if !p.retry.sleep(ctx, attempt-1) {
				break
			}
			p.requestRetries.Add(1)
		}
		resp, err := p.open(ctx, method, u, payload)
		var te *transientErr
		if errors.As(err, &te) {
			lastErr = te.err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if err != nil {
			return err
		}
		// Read the whole body before declaring success: a connection
		// reset mid-body is the same transient failure as one before
		// the headers and retries under the same budget.
		data, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("remote: %s %s: reading response: %w", method, u, err)
			continue
		}
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return nil
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return lastErr
}

// maxSizedBody caps the buffer a declared Content-Length may allocate
// up front; a larger body is read as it arrives.
const maxSizedBody = 64 << 20

// readBody reads a 2xx response's whole body. A declared length sizes
// the buffer once — a megabyte-scale trace artifact would otherwise be
// reassembled by repeated doubling — and a body that ends short of it
// is an error (io.ErrUnexpectedEOF), which do retries.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	_, err := io.ReadFull(resp.Body, data)
	return data, err
}

// IsOverloaded reports whether err is the server's 429 admission
// rejection, and if so the typed shed reason ("owner_cap" — back off
// your own submissions; "queue_watermark" — the fleet is saturated,
// back off globally). Submissions are never auto-retried, so callers
// decide their own backoff on this signal.
func IsOverloaded(err error) (reason string, ok bool) {
	var ae *api.Error
	if errors.As(err, &ae) && ae.Code == api.CodeOverloaded {
		return ae.ShedReason, true
	}
	return "", false
}

// decodeError turns a non-2xx response into *api.Error.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env api.Envelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
		return env.Error
	}
	return &api.Error{
		Code:    api.CodeForStatus(resp.StatusCode),
		Message: strings.TrimSpace(string(data)),
	}
}

// transientErr marks a failure worth retrying — network-level, or a
// gateway-class response status. It unwraps to the underlying error so
// errors.As against *api.Error keeps working.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// open sends one request and returns its 2xx response with the body
// open — the one place a request is made, for do's round trips and
// Follow's streams alike. Failures worth another attempt (network
// errors, gateway-class statuses) come back as *transientErr; any other
// non-2xx response is its *api.Error.
func (p *Platform) open(ctx context.Context, method, u string, payload []byte) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+p.token)
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, &transientErr{fmt.Errorf("remote: %s %s: %w", method, u, err)}
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		err := decodeError(resp)
		if transientStatus(resp.StatusCode) {
			return nil, &transientErr{err}
		}
		return nil, err
	}
	return resp, nil
}

// Nodes lists the server's vantage points with their devices and
// health states.
func (p *Platform) Nodes(ctx context.Context) ([]api.NodeInfo, error) {
	var out []api.NodeInfo
	err := p.doJSON(ctx, http.MethodGet, p.url("/api/v1/nodes"), nil, &out)
	return out, err
}

// NodeDetail fetches one vantage point's lifecycle snapshot: health
// state, heartbeat age, drain flag, leased and queued builds.
func (p *Platform) NodeDetail(ctx context.Context, name string) (api.NodeDetail, error) {
	var out api.NodeDetail
	err := p.doJSON(ctx, http.MethodGet, p.url("/api/v1/nodes/%s", name), nil, &out)
	return out, err
}

// WorkloadNames lists the server's registered workloads.
func (p *Platform) WorkloadNames(ctx context.Context) ([]string, error) {
	var out []string
	err := p.doJSON(ctx, http.MethodGet, p.url("/api/v1/workloads"), nil, &out)
	return out, err
}

// BuildStatus fetches one build's wire status.
func (p *Platform) BuildStatus(ctx context.Context, build int) (api.BuildStatus, error) {
	var out api.BuildStatus
	err := p.doJSON(ctx, http.MethodGet, p.url("/api/v1/builds/%d", build), nil, &out)
	return out, err
}

// Artifact fetches one workspace artifact's raw bytes, retrying
// transient failures.
func (p *Platform) Artifact(ctx context.Context, build int, name string) ([]byte, error) {
	var data []byte
	err := p.doJSON(ctx, http.MethodGet, p.url("/api/v1/builds/%d/artifacts/%s", build, name), nil, &data)
	return data, err
}

// Analytics runs a server-side trace query over a finished build's
// stored trace: windowed aggregates (mean/min/max/quantiles/energy)
// computed where the artifact lives, so a dashboard fetches kilobytes
// of summaries instead of the whole trace. A zero q asks for every
// field, no bucketing, the default trace artifact.
func (p *Platform) Analytics(ctx context.Context, build int, q api.AnalyticsQuery) (api.AnalyticsResult, error) {
	vals := url.Values{}
	if q.WindowNS > 0 {
		vals.Set("window", time.Duration(q.WindowNS).String())
	}
	if len(q.Fields) > 0 {
		vals.Set("fields", strings.Join(q.Fields, ","))
	}
	if q.Artifact != "" {
		vals.Set("artifact", q.Artifact)
	}
	u := p.url("/api/v1/builds/%d/analytics", build)
	if len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	var out api.AnalyticsResult
	err := p.doJSON(ctx, http.MethodGet, u, nil, &out)
	return out, err
}

// StartExperiment submits a declarative spec and returns a live
// session handle — the remote counterpart of
// core.Platform.StartExperiment. Observers receive phase transitions
// and live samples streamed from the server; cancelling ctx cancels
// the remote build.
func (p *Platform) StartExperiment(ctx context.Context, spec api.ExperimentSpec, obs ...core.Observer) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var resp api.SubmitResponse
	if err := p.doJSON(ctx, http.MethodPost, p.url("/api/v1/experiments"), spec, &resp); err != nil {
		return nil, err
	}
	return p.followBuild(ctx, resp.Build, spec.Node, spec.Device, obs), nil
}

// RunExperiment is the blocking shorthand: submit, stream, wait.
func (p *Platform) RunExperiment(ctx context.Context, spec api.ExperimentSpec, obs ...core.Observer) (*core.Result, error) {
	s, err := p.StartExperiment(ctx, spec, obs...)
	if err != nil {
		return nil, err
	}
	return s.Wait(ctx)
}

// StartCampaign submits a campaign and returns a handle over its
// builds. The server fans the runs out across vantage points through
// its scheduler; each build gets its own event/sample streams.
func (p *Platform) StartCampaign(ctx context.Context, spec api.CampaignSpec, obs ...core.Observer) (*Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var resp api.CampaignResponse
	if err := p.doJSON(ctx, http.MethodPost, p.url("/api/v1/campaigns"), spec, &resp); err != nil {
		return nil, err
	}
	c := &Campaign{p: p, ID: resp.Campaign, done: make(chan struct{})}
	for i, build := range resp.Builds {
		exp := spec.Experiments[i]
		c.sessions = append(c.sessions, p.followBuild(ctx, build, exp.Node, exp.Device, obs))
	}
	go func() {
		for _, s := range c.sessions {
			<-s.Done()
		}
		close(c.done)
	}()
	return c, nil
}

// Session is a handle to one in-flight remote build. It satisfies the
// same Wait/Cancel/Done/Phase session shape as core.Session.
type Session struct {
	p      *Platform
	build  int
	node   string
	device string
	obs    []core.Observer

	done chan struct{}

	mu        sync.Mutex
	phase     core.Phase
	doneEvent *core.PhaseChange
	agg       *samples.StreamSummary
	live      samples.LiveSummary
	res       *core.Result
	err       error
	canceled  bool
	failovers int
	lastRetry string
}

// followBuild attaches streams to a submitted build and returns its
// session.
func (p *Platform) followBuild(ctx context.Context, build int, node, device string, obs []core.Observer) *Session {
	// Streams live on their own context: they must outlast the submit
	// ctx's happy path and end when the build does. The submit ctx is
	// still honored for cancellation semantics below.
	sctx, scancel := context.WithCancel(context.Background())
	s := &Session{
		p:      p,
		build:  build,
		node:   node,
		device: device,
		obs:    obs,
		done:   make(chan struct{}),
		agg:    samples.NewStreamSummary(),
	}
	sampled := sampleStream(s.handleSample)
	sampled.Restart = s.resetLive
	go func() {
		s.finalize(sctx, p.followStreams(sctx, build, eventStream(s.handleEvent), sampled))
		scancel()
		close(s.done)
	}()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Cancel()
			case <-s.done:
			}
		}()
	}
	return s
}

// Build reports the server-side build id backing this session.
func (s *Session) Build() int { return s.build }

// Done returns a channel closed when the remote run has finished and
// the result (or error) is available. Every accepted sample and phase
// event is delivered to observers before Done closes, with the
// terminal PhaseDone event last — the same contract as core.Session.
func (s *Session) Done() <-chan struct{} { return s.done }

// Phase reports the latest phase observed on the event stream.
func (s *Session) Phase() core.Phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
}

// Failovers reports how many scheduler failover events the session has
// observed on its event stream: each one means the build's vantage
// point was lost and the server requeued the run (on the same node
// once it returns, or a fallback node). The last failover's reason is
// the second return.
func (s *Session) Failovers() (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failovers, s.lastRetry
}

// Live reports the client-side streaming summary of the live samples
// received so far (mean/P50/P95/charge over the live feed's cadence —
// an estimate of the monitor-side summary a local session exposes).
func (s *Session) Live() samples.LiveSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Result reports the outcome once Done is closed ((nil, nil) before).
func (s *Session) Result() (*core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// Cancel asks the server to abort the build (queued: dropped from the
// queue; running: the measurement session tears down at the earliest
// safe point). Idempotent; the result still arrives through Wait with
// an error matching core.ErrCanceled.
func (s *Session) Cancel() {
	s.mu.Lock()
	already := s.canceled
	s.canceled = true
	s.mu.Unlock()
	if already {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Conflict means the build already finished — not an error here.
	// Cancel is idempotent server-side, so it retries like a GET.
	err := s.p.doJSONIdempotent(ctx, http.MethodPost, s.p.url("/api/v1/builds/%d/cancel", s.build), nil, nil)
	var apiErr *api.Error
	if err != nil && errors.As(err, &apiErr) && apiErr.Code == api.CodeConflict {
		return
	}
}

// Wait blocks until the remote run completes and returns its outcome.
// Cancelling ctx cancels the build and still waits for its teardown,
// mirroring core.Session.Wait.
func (s *Session) Wait(ctx context.Context) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.done:
	case <-ctx.Done():
		s.Cancel()
		<-s.done
	}
	return s.Result()
}

// Stream is one follower of a build's event or sample stream, as Follow
// drives it: where the next connection resumes and what reads it.
type Stream struct {
	// Route is the stream under /api/v1/builds/{id}/ with any query
	// beyond the cursor: "events", "samples" or "samples?format=ndjson".
	Route string
	// From is the resume cursor (?from=): how many records of the feed
	// the follower has delivered. Follow advances it.
	From int
	// Epoch is the feed incarnation From counts in, pinned by a status
	// read before the first open.
	Epoch int
	// Consume reads one connection's body, delivering whole records, and
	// reports how many it delivered. It returns nil only when the body
	// ended at a record boundary; any other return is a broken end.
	Consume func(body io.Reader) (records int, err error)
	// Restart runs when a broken end finds that the feed started over —
	// the server restarted and recovered the build, so the epoch moved
	// and From is back at 0 — to void what the follower derived from the
	// abandoned feed. Nil: there is nothing to void. An error ends the
	// follow with it: what a follower that has passed records on and
	// cannot take them back must do.
	Restart func() error
}

// Follow follows one build stream to its end — the one loop behind a
// session, the federation relay and the feed gateway. It rests on one
// rule: a clean end (the body terminated at a record boundary) means the
// feed closed, and since the server publishes a build's terminal status
// before it closes the feed, that status can already be read; Follow
// returns nil. Any other end is broken — a failed open, a cut
// connection, a record cut short — and resumes from s.From after one
// status read: if the feed epoch moved past s.Epoch, the cursor belongs
// to an abandoned feed and starts over (see Stream.Restart). Follow
// gives up with an error when an open meets an application error, the
// status cannot be read, ctx ends, or the retry policy's budget of
// consecutive failures is spent.
func (p *Platform) Follow(ctx context.Context, build int, s *Stream) error {
	ref, err := url.Parse(fmt.Sprintf("/api/v1/builds/%d/%s", build, s.Route))
	if err != nil {
		return fmt.Errorf("remote: stream route %q: %w", s.Route, err)
	}
	query := ref.Query()
	failures := 0
	for {
		query.Set("from", strconv.Itoa(s.From))
		ref.RawQuery = query.Encode()
		opened := time.Now()
		resp, err := p.open(ctx, http.MethodGet, p.base.ResolveReference(ref).String(), nil)
		var te *transientErr
		n := 0
		switch {
		case err == nil:
			n, err = s.Consume(resp.Body)
			resp.Body.Close()
			s.From += n
			if err == nil {
				return nil
			}
		case !errors.As(err, &te):
			return err // an application error: reconnecting cannot help
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// A connection that delivered records, or stayed up long enough
		// that its drop is a new incident, refills the budget: idle
		// streams severed by proxies every few minutes must not burn it
		// cumulatively over a healthy run.
		if n > 0 || time.Since(opened) > 5*time.Second {
			failures = 0
		}
		if failures++; failures >= p.retry.Attempts {
			return fmt.Errorf("remote: following build %d's %s: %w", build, s.Route, err)
		}
		st, err := p.BuildStatus(ctx, build)
		if err != nil {
			return err
		}
		if st.FeedEpoch > s.Epoch {
			s.Epoch, s.From = st.FeedEpoch, 0
			p.epochResets.Add(1)
			if s.Restart != nil {
				if err := s.Restart(); err != nil {
					return err
				}
			}
		}
		if !p.retry.sleep(ctx, failures) {
			return ctx.Err()
		}
		p.streamReconnects.Add(1)
	}
}

// followStreams pins the build's feed epoch with one status read and
// follows each stream from it concurrently. It returns what ended them
// broken, if anything.
func (p *Platform) followStreams(ctx context.Context, build int, streams ...*Stream) error {
	st, err := p.BuildStatus(ctx, build)
	if err != nil {
		return err
	}
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		s.Epoch = st.FeedEpoch
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.Follow(ctx, build, s)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// terminalStatus is the one status read after a build's streams ended
// clean: their feed closed, so the status it reports is terminal.
func (p *Platform) terminalStatus(ctx context.Context, build int) (api.BuildStatus, error) {
	st, err := p.BuildStatus(ctx, build)
	if err == nil && !st.Terminal() {
		err = fmt.Errorf("remote: build %d still %s after its streams ended", build, st.State)
	}
	return st, err
}

// eventStream reads the NDJSON event stream, handing each event to each
// in order.
func eventStream(each func(api.BuildEvent)) *Stream {
	return &Stream{Route: "events", Consume: func(body io.Reader) (int, error) {
		dec := json.NewDecoder(body)
		for n := 0; ; n++ {
			var ev api.BuildEvent
			if err := dec.Decode(&ev); err != nil {
				if err == io.EOF {
					err = nil
				}
				return n, err
			}
			each(ev)
		}
	}}
}

// sampleStream reads the binary sample stream, handing each point to
// each in order.
func sampleStream(each func(api.SamplePoint)) *Stream {
	return &Stream{Route: "samples", Consume: func(body io.Reader) (int, error) {
		br := bufio.NewReader(body)
		n := 0
		for {
			pts, err := api.ReadSampleFrame(br)
			if err != nil {
				if err == io.EOF { // at a frame boundary: the clean end
					err = nil
				}
				return n, err
			}
			for _, pt := range pts {
				each(pt)
			}
			n += len(pts)
		}
	}}
}

// handleEvent folds one wire event into the session and observers. The
// terminal PhaseDone event is withheld and delivered by finalize, after
// the sample stream has drained.
func (s *Session) handleEvent(ev api.BuildEvent) {
	if ev.Phase == api.EventFailover {
		// Scheduler retry transition, not an experiment phase: the
		// node was lost and the build is being requeued.
		s.mu.Lock()
		s.failovers++
		s.lastRetry = ev.Error
		s.mu.Unlock()
		return
	}
	phase, ok := core.PhaseFromString(ev.Phase)
	if !ok {
		return // newer server: skip unknown phases
	}
	change := core.PhaseChange{
		Node:   ev.Node,
		Device: ev.Device,
		Phase:  phase,
		At:     time.Unix(0, ev.AtNS),
		Step:   ev.Step,
	}
	if ev.Error != "" {
		change.Err = errors.New(ev.Error)
	}
	s.mu.Lock()
	if phase > s.phase {
		s.phase = phase
	}
	if phase == core.PhaseDone {
		s.doneEvent = &change
	}
	s.mu.Unlock()
	if phase != core.PhaseDone {
		for _, o := range s.obs {
			o.OnPhase(change)
		}
	}
}

// handleSample re-aggregates the live summary client-side and forwards
// the point to observers.
func (s *Session) handleSample(pt api.SamplePoint) {
	s.agg.Add(pt.AtNS, pt.CurrentMA)
	live := s.agg.Snapshot()
	s.mu.Lock()
	s.live = live
	s.mu.Unlock()
	smp := core.Sample{
		Node:      s.node,
		Device:    s.device,
		At:        time.Unix(0, pt.AtNS),
		CurrentMA: pt.CurrentMA,
		Live:      live,
	}
	for _, o := range s.obs {
		o.OnSample(smp)
	}
}

// resetLive clears the live aggregate when the server restarted and
// recovered the build: the rerun's samples are a fresh capture, and the
// pre-crash ones belonged to an attempt the scheduler abandoned.
func (s *Session) resetLive() error {
	s.agg = samples.NewStreamSummary()
	s.mu.Lock()
	s.live = samples.LiveSummary{}
	s.mu.Unlock()
	return nil
}

// finalize runs after both streams end: read the terminal build state
// once (unless a stream ended broken — then err says why, and the
// observers missed records a local session would have delivered),
// reconstruct the Result from the workspace artifacts, and deliver the
// withheld PhaseDone event.
func (s *Session) finalize(ctx context.Context, err error) {
	var st api.BuildStatus
	if err == nil {
		st, err = s.p.terminalStatus(ctx, s.build)
	}
	var res *core.Result
	var runErr error
	switch {
	case err != nil:
		runErr = err
	case st.State == "success":
		res, runErr = s.fetchResult(ctx, st)
	case st.State == "aborted":
		runErr = fmt.Errorf("%w: build %d aborted", core.ErrCanceled, s.build)
	case st.State == api.StateExpired:
		runErr = fmt.Errorf("remote: build %d expired from the server's retention window", s.build)
	default: // failure
		msg := st.Error
		if msg == "" {
			msg = "build " + st.State
		}
		switch {
		case st.Canceled:
			// Structured cancellation marker — never inferred from the
			// message text, which the wire contract does not promise.
			runErr = fmt.Errorf("%w: remote: %s", core.ErrCanceled, msg)
		case st.NodeLost:
			// Structured node-loss marker: the scheduler spent its
			// failover budget on dead vantage points.
			runErr = fmt.Errorf("%w: remote: %s", core.ErrNodeLost, msg)
		default:
			runErr = fmt.Errorf("remote: build %d failed: %s", s.build, msg)
		}
	}

	s.mu.Lock()
	s.res, s.err = res, runErr
	s.phase = core.PhaseDone
	doneEvent := s.doneEvent
	s.mu.Unlock()

	if doneEvent == nil {
		doneEvent = &core.PhaseChange{
			Node: s.node, Device: s.device,
			Phase: core.PhaseDone, At: time.Now(), Err: runErr,
		}
	}
	for _, o := range s.obs {
		o.OnPhase(*doneEvent)
	}
}

// fetchResult reconstructs a *core.Result from the build's workspace:
// the lossless binary current trace plus the CPU CSVs.
func (s *Session) fetchResult(ctx context.Context, st api.BuildStatus) (*core.Result, error) {
	cur, err := s.Artifact(ctx, core.ArtifactCurrentTrace)
	if err != nil {
		return nil, fmt.Errorf("remote: fetching current trace: %w", err)
	}
	current, err := trace.DecodeBinary(cur)
	if err != nil {
		return nil, fmt.Errorf("remote: decoding current trace: %w", err)
	}
	var t0 time.Time
	if current.Len() > 0 {
		t0 = current.At(0).T
	}
	readCSV := func(name, series, unit string) (*trace.Series, error) {
		data, err := s.Artifact(ctx, name)
		if err != nil {
			return nil, err
		}
		return trace.ReadCSV(bytes.NewReader(data), series, unit, t0)
	}
	devCPU, err := readCSV(core.ArtifactDeviceCPU, "device-cpu", "percent")
	if err != nil {
		return nil, fmt.Errorf("remote: fetching device CPU trace: %w", err)
	}
	ctlCPU, err := readCSV(core.ArtifactControllerCPU, "controller-cpu", "percent")
	if err != nil {
		return nil, fmt.Errorf("remote: fetching controller CPU trace: %w", err)
	}
	res := &core.Result{
		Current:       current,
		DeviceCPU:     devCPU,
		ControllerCPU: ctlCPU,
		EnergyMAH:     current.EnergyMAH(),
	}
	if st.Summary != nil {
		res.Duration = time.Duration(st.Summary.DurationNS)
		res.MirrorUploadBytes = st.Summary.MirrorUploadBytes
	}
	return res, nil
}

// Artifact fetches one of this build's workspace artifacts.
func (s *Session) Artifact(ctx context.Context, name string) ([]byte, error) {
	return s.p.Artifact(ctx, s.build, name)
}

// Campaign is a handle to an in-flight remote campaign: one session
// per submitted experiment, index-aligned with the spec.
type Campaign struct {
	p        *Platform
	ID       int
	sessions []*Session
	done     chan struct{}
}

// CampaignRun is one experiment's outcome within a remote campaign.
type CampaignRun struct {
	Index  int
	Build  int
	Node   string
	Device string
	Result *core.Result
	Err    error
}

// Sessions returns the campaign's per-build sessions in spec order.
func (c *Campaign) Sessions() []*Session { return c.sessions }

// Done returns a channel closed when every run has finished.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Cancel aborts every build in the campaign.
func (c *Campaign) Cancel() {
	for _, s := range c.sessions {
		s.Cancel()
	}
}

// Runs snapshots the per-run outcomes in spec order (final only once
// Done is closed).
func (c *Campaign) Runs() []CampaignRun {
	out := make([]CampaignRun, len(c.sessions))
	for i, s := range c.sessions {
		res, err := s.Result()
		out[i] = CampaignRun{
			Index: i, Build: s.build,
			Node: s.node, Device: s.device,
			Result: res, Err: err,
		}
	}
	return out
}

// Wait blocks until every run completes and returns the aggregated
// outcomes. Cancelling ctx cancels the remaining builds, mirroring
// core.CampaignSession.Wait.
func (c *Campaign) Wait(ctx context.Context) ([]CampaignRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-c.done:
		return c.Runs(), nil
	case <-ctx.Done():
		c.Cancel()
		<-c.done
		return c.Runs(), ctx.Err()
	}
}
