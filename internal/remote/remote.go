// Package remote is the client side of BatteryLab's v1 remote
// execution API. remote.Platform speaks the wire protocol of
// internal/api against an access server's /api/v1/ routes, and it is
// core.Port's HTTP adapter: StartExperiment and StartCampaign return the
// one run handle, core.Experiment and core.CampaignSession, that an
// in-process run has, so code written against the batterylab facade's
// Backend runs unchanged wherever the platform is. The adapter:
//
//   - submits by POSTing the declarative spec; the server compiles it
//     against its workload registry and queues a build;
//   - follows a build over two NDJSON streams, phase events
//     (/builds/{id}/events) and live power samples
//     (/builds/{id}/samples?format=ndjson), each point carrying the live
//     summary the server's session computed over every monitor sample;
//   - reads the settled build's status and its workspace artifacts (the
//     binary current and CPU traces), from which the handle rebuilds the
//     run — bit-identical to the server's, and to a local run of the
//     same spec, because the binary codec is lossless;
//   - aborts with an idempotent cancel POST, and lets Wait just wait:
//     the server's clock is not the client's to drive.
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
	"sync/atomic"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/core"
)

// Platform is a client handle to a remote access server. It is safe
// for concurrent use; every run it starts shares its HTTP client.
type Platform struct {
	base  *url.URL
	token string
	hc    *http.Client
	retry RetryPolicy

	// Resilience counters, shared by every run (see Stats).
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
// starting runs.
func (p *Platform) SetRetryPolicy(rp RetryPolicy) {
	if rp.Attempts < 1 {
		rp.Attempts = 1
	}
	p.retry = rp
}

// delay computes the jittered backoff before retry attempt n (1-based)
// — the one place it is computed, for requests and for every stream
// follower (a run handle, the federation relay, the feed gateway) alike:
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
// timeouts). Call before starting runs.
func (p *Platform) SetHTTPClient(hc *http.Client) { p.hc = hc }

// url joins the base with a formatted path.
func (p *Platform) url(format string, args ...any) string {
	ref := &url.URL{Path: fmt.Sprintf(format, args...)}
	return p.base.ResolveReference(ref).String()
}

// doJSON performs one request/response round trip, retrying transient
// failures (network errors, 502/503/504, a body cut short) with backoff
// for idempotent requests — GETs, plus POSTs do's caller marks
// idempotent (cancel is; submit is not, since a retried submit could
// double-queue a build). The response body is decoded as JSON into out,
// or kept whole when out is a *[]byte. A non-2xx response is decoded as
// the api.Error envelope (synthesized from the bare status when the body
// is not an envelope) and returned as *api.Error.
func (p *Platform) doJSON(ctx context.Context, method, u string, in, out any) error {
	return p.do(ctx, method, u, in, out, method == http.MethodGet)
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

// StartExperiment submits a declarative spec and returns the handle of
// its build — core.StartExperiment through this client's port, the
// handle an in-process run has. Observers receive phase transitions and
// live samples streamed from the server; cancelling ctx cancels the
// remote build.
func (p *Platform) StartExperiment(ctx context.Context, spec api.ExperimentSpec, obs ...core.Observer) (*core.Experiment, error) {
	return core.StartExperiment(ctx, port{p}, spec, obs...)
}

// StartCampaign submits a campaign and returns the handle over its
// builds — core.StartCampaign through this client's port. The server
// fans the runs out across vantage points through its scheduler; each
// build gets its own event/sample streams.
func (p *Platform) StartCampaign(ctx context.Context, spec api.CampaignSpec, obs ...core.Observer) (*core.CampaignSession, error) {
	return core.StartCampaign(ctx, port{p}, spec, obs...)
}

// port is the HTTP adapter of core.Port: submissions POST the wire
// spec, a build is followed over its two NDJSON streams and read with
// status and artifact GETs, and Drive just waits — the server's clock
// is not the client's to drive.
type port struct{ *Platform }

func (p port) Submit(ctx context.Context, spec api.ExperimentSpec) (int, error) {
	var resp api.SubmitResponse
	err := p.doJSON(ctx, http.MethodPost, p.url("/api/v1/experiments"), spec, &resp)
	return resp.Build, err
}

func (p port) SubmitCampaign(ctx context.Context, spec api.CampaignSpec) (int, []int, error) {
	var resp api.CampaignResponse
	err := p.doJSON(ctx, http.MethodPost, p.url("/api/v1/campaigns"), spec, &resp)
	return resp.Campaign, resp.Builds, err
}

// Follow pins the build's feed epoch with one status read and follows
// its event and sample streams from it concurrently. The samples come as
// NDJSON: only NDJSON carries each point's live summary, the one the
// server's session computed over every monitor sample. An epoch reset
// needs no Restart: the recovered build's feed is a fresh capture whose
// points carry their own summary.
func (p port) Follow(ctx context.Context, build int, event func(api.BuildEvent), sample func(api.SamplePoint)) error {
	st, err := p.BuildStatus(ctx, build)
	if err != nil {
		return err
	}
	events, samples := ndjsonStream("events", event), ndjsonStream("samples?format=ndjson", sample)
	events.Epoch, samples.Epoch = st.FeedEpoch, st.FeedEpoch
	broken := make(chan error, 1)
	go func() { broken <- p.Platform.Follow(ctx, build, events) }()
	err = p.Platform.Follow(ctx, build, samples)
	return errors.Join(<-broken, err)
}

// Abort POSTs the build's cancel, which is idempotent server-side and
// retries like a GET, for at most 10 s. A conflict (the build settled,
// or settled and expired) leaves nothing to cancel; a not-found is an id
// the server never issued, and an error.
func (p port) Abort(ctx context.Context, build int) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := p.do(ctx, http.MethodPost, p.url("/api/v1/builds/%d/cancel", build), nil, nil, true)
	var apiErr *api.Error
	if errors.As(err, &apiErr) && apiErr.Code == api.CodeConflict {
		return nil
	}
	return err
}

func (port) Drive(ctx context.Context, _ func() bool, done <-chan struct{}, cancel func()) error {
	return core.Await(ctx, done, cancel)
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
// run handle, the federation relay and the feed gateway. It rests on one
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
