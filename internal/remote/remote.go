// Package remote is the client side of BatteryLab's v1 remote
// execution API: a location-transparent mirror of the in-process
// experiment runner. remote.Platform speaks the wire protocol of
// internal/api against an access server's /api/v1/ routes, and its
// sessions expose the same Start/Wait/Cancel/Observer shape as
// core.Experiment — experiments written against the shared backend
// interface in the batterylab facade run unchanged whether the
// platform is in this address space or across the network.
//
// A remote session's life:
//
//  1. StartExperiment POSTs the declarative spec; the server compiles
//     it against its workload registry and queues a build.
//  2. Two NDJSON streams follow the build: phase events
//     (/builds/{id}/events) and live power samples
//     (/builds/{id}/samples?format=ndjson). Observers receive the same
//     PhaseChange/Sample callbacks a local session delivers, Sample.Live
//     included: each point carries the live summary the server's
//     session computed over every monitor sample.
//  3. When the streams end, the session reads the build's terminal
//     status once and turns it into a core.CampaignRun with core.RunOf,
//     the one reading an in-process core.Experiment gives its build
//     too: a success's *core.Result is rebuilt by core.DecodeResult
//     from the workspace artifacts (the binary current and CPU traces),
//     a failure has the local error text and sentinels, and both carry
//     the build's start and finish instants on the server's clock. The
//     terminal PhaseDone is the one the feed carried or, for a build
//     that posted none (canceled while queued), one stamped with the
//     build's finish instant. Because the binary codec is lossless and
//     the streaming aggregators are recomputed in append order, the
//     result is bit-identical to the server's (and to a local run of
//     the same spec). A campaign's Wait returns the same runs a local
//     campaign's does.
//
// The client is resilient to transient failures: idempotent requests
// retry with exponential backoff and jitter (see RetryPolicy), and a
// dropped event or sample stream reconnects from its resume cursor
// (?from=) instead of silently losing the tail. Submission POSTs never
// auto-retry — a retried submit could double-queue a build.
package remote

import (
	"bytes"
	"context"
	crand "crypto/rand"
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
	id := requestID()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if !p.retry.sleep(ctx, attempt-1) {
				break
			}
			p.requestRetries.Add(1)
		}
		resp, err := p.open(ctx, method, u, payload, id)
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

// requestID is a fresh correlation id: one per do call and one per
// Follow, sent as X-Request-Id on each of its attempts, so the server's
// access log ties the retries and reconnects of one call together. It is
// within the charset the server echoes, and never a bare number nor a
// benchmark span's "sp-" id.
func requestID() string { return "rq-" + crand.Text() }

// open sends one request and returns its 2xx response with the body
// open — the one place a request is made, for do's round trips and
// Follow's streams alike. Failures worth another attempt (network
// errors, gateway-class statuses) come back as *transientErr; any other
// non-2xx response is its *api.Error.
func (p *Platform) open(ctx context.Context, method, u string, payload []byte, id string) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+p.token)
	req.Header.Set("X-Request-Id", id)
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
// core.Platform.StartExperimentSpec. Observers receive phase transitions
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
	s := p.followBuild(0, resp.Build, spec, obs)
	watch(ctx, s.done, s.Cancel)
	return s, nil
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
		c.sessions = append(c.sessions, p.followBuild(i, build, spec.Experiments[i], obs))
	}
	go func() {
		for _, s := range c.sessions {
			<-s.Done()
		}
		close(c.done)
	}()
	watch(ctx, c.done, c.Cancel)
	return c, nil
}

// watch cancels a handle when ctx ends before done closes.
func watch(ctx context.Context, done <-chan struct{}, cancel func()) {
	if ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			cancel()
		case <-done:
		}
	}()
}

// Session is a handle to one in-flight remote build. It satisfies the
// same Wait/Cancel/Done/Phase shape as core.Experiment.
type Session struct {
	p     *Platform
	index int // the run's position in its campaign
	spec  api.ExperimentSpec
	build int
	obs   []core.Observer

	// run is written by finalize before done closes.
	run  core.CampaignRun
	done chan struct{}

	mu        sync.Mutex
	phase     core.Phase
	doneEvent *core.PhaseChange
	canceled  bool
}

// followBuild attaches streams to a submitted build, the i-th of its
// campaign, and returns its session.
func (p *Platform) followBuild(i, build int, spec api.ExperimentSpec, obs []core.Observer) *Session {
	// Streams live on their own context: they must outlast the submit
	// ctx's happy path and end when the build does; the submit ctx
	// cancels the build instead (watch).
	sctx, scancel := context.WithCancel(context.Background())
	s := &Session{
		p:     p,
		index: i,
		spec:  spec,
		build: build,
		obs:   obs,
		done:  make(chan struct{}),
	}
	// The samples come as NDJSON, as Relay follows them: only NDJSON
	// carries each point's live summary, the one the server's session
	// computed over every monitor sample, so observers see the Sample a
	// local handle delivers. An epoch reset needs no Restart: the
	// recovered build's feed is a fresh capture whose points carry their
	// own summary.
	go func() {
		s.finalize(sctx, p.followStreams(sctx, build,
			ndjsonStream("events", s.handleEvent), ndjsonStream("samples?format=ndjson", s.handleSample)))
		scancel()
		close(s.done)
	}()
	return s
}

// Build reports the server-side build id backing this session.
func (s *Session) Build() int { return s.build }

// Done returns a channel closed when the remote run has finished and
// the result (or error) is available. Every accepted sample and phase
// event is delivered to observers before Done closes, with the
// terminal PhaseDone event last — the same contract as core.Experiment.
func (s *Session) Done() <-chan struct{} { return s.done }

// Phase reports the latest phase observed on the event stream.
func (s *Session) Phase() core.Phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
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
// mirroring core.Experiment.Wait.
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
	return s.run.Result, s.run.Err
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
	id := requestID()
	failures := 0
	for {
		query.Set("from", strconv.Itoa(s.From))
		ref.RawQuery = query.Encode()
		opened := time.Now()
		resp, err := p.open(ctx, http.MethodGet, p.base.ResolveReference(ref).String(), nil, id)
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

// ndjsonStream reads an NDJSON stream of records at route — the events,
// or the samples with every field of their live summary — handing each
// record to each in order.
func ndjsonStream[T any](route string, each func(T)) *Stream {
	return &Stream{Route: route, Consume: func(body io.Reader) (int, error) {
		dec := json.NewDecoder(body)
		for n := 0; ; n++ {
			var rec T
			if err := dec.Decode(&rec); err != nil {
				if err == io.EOF {
					err = nil
				}
				return n, err
			}
			each(rec)
		}
	}}
}

// handleEvent folds one wire event into the session and observers. The
// terminal PhaseDone event is withheld and delivered by finalize, after
// the sample stream has drained.
func (s *Session) handleEvent(ev api.BuildEvent) {
	change, ok := core.PhaseChangeOf(ev)
	if !ok {
		return // a failover transition, or a newer server's phase
	}
	s.mu.Lock()
	if change.Phase > s.phase {
		s.phase = change.Phase
	}
	if change.Phase == core.PhaseDone {
		s.doneEvent = &change
	}
	s.mu.Unlock()
	if change.Phase != core.PhaseDone {
		for _, o := range s.obs {
			o.OnPhase(change)
		}
	}
}

// handleSample forwards one wire point to observers as the Sample a
// local handle delivers for it.
func (s *Session) handleSample(pt api.SamplePoint) {
	smp := core.SampleOf(s.spec.Node, s.spec.Device, pt)
	for _, o := range s.obs {
		o.OnSample(smp)
	}
}

// finalize runs after both streams end: read the terminal build state
// once and turn it into the run with core.RunOf, fetching the
// workspace artifacts to rebuild a success's Result, then deliver the
// terminal PhaseDone. When a stream ended broken or the status cannot be
// read, err says why, the observers missed records a local handle
// would have delivered, and there is no run to read: the run fails with
// err.
func (s *Session) finalize(ctx context.Context, err error) {
	var st api.BuildStatus
	if err == nil {
		st, err = s.p.terminalStatus(ctx, s.build)
	}
	var last core.PhaseChange
	if err == nil {
		// The streams have ended, so handleEvent no longer writes
		// doneEvent.
		s.run, last = core.RunOf(s.index, s.spec, st, s.doneEvent, func(name string) ([]byte, error) {
			return s.Artifact(ctx, name)
		})
	} else {
		s.run = core.CampaignRun{Index: s.index, Build: s.build, Node: s.spec.Node, Device: s.spec.Device, Err: err}
		last = core.PhaseChange{Node: s.spec.Node, Device: s.spec.Device, Phase: core.PhaseDone, Err: err}
	}
	s.mu.Lock()
	s.phase = core.PhaseDone
	s.mu.Unlock()
	for _, o := range s.obs {
		o.OnPhase(last)
	}
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

// Done returns a channel closed when every run has finished.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Cancel aborts every build in the campaign that has not settled.
// Members go last to first, as an in-process campaign's do, so queued
// ones leave the server's queue before the running ones ahead of them
// free their nodes: first to last, the server could dispatch the next
// member between two requests — a device setup for a run nobody wants.
func (c *Campaign) Cancel() {
	for i := len(c.sessions) - 1; i >= 0; i-- {
		c.sessions[i].Cancel()
	}
}

// Wait blocks until every run completes and returns the outcomes in
// spec order. Cancelling ctx cancels the remaining builds, waits for
// them to settle and returns ctx's error — the contract of an
// in-process campaign's Wait, which queues on the same kind of server.
func (c *Campaign) Wait(ctx context.Context) ([]core.CampaignRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	select {
	case <-c.done:
	case <-ctx.Done():
		c.Cancel()
		<-c.done
		err = ctx.Err()
	}
	runs := make([]core.CampaignRun, len(c.sessions))
	for i, s := range c.sessions {
		runs[i] = s.run
	}
	return runs, err
}
