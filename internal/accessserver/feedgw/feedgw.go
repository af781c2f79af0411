// Package feedgw is the access server's feed-gateway mode: a stateless
// relay that serves the v1 streaming routes (build events and live
// samples) by subscribing to an upstream control server through
// internal/remote, instead of owning a scheduler of its own.
//
// The control/data plane split makes this possible: the streaming
// routes depend only on the feed plane (a build id, a resume cursor, a
// feed epoch), all of which the v1 API already carries on the wire. A
// gateway deployed next to a dashboard fleet absorbs thousands of
// streaming subscribers and holds exactly one upstream subscription per
// active client stream — and when its upstream connection drops, it
// reconnects from its accumulated cursor (`?from=`) so clients see an
// uninterrupted, exactly-once stream. If the upstream's feed epoch
// moves (a server restart re-created the feed), accumulated cursors are
// void and the gateway ends the client stream rather than splice two
// incompatible replays.
//
// Auth is pass-through: the client's bearer token is forwarded
// upstream, so the gateway needs no user database and upstream
// permission checks still apply per-client.
package feedgw

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"batterylab/internal/api"
	"batterylab/internal/metrics"
	"batterylab/internal/remote"
)

// Gateway relays the v1 streaming routes from one upstream server.
// Safe for concurrent use; each client stream dials its own upstream
// subscription with that client's credentials.
type Gateway struct {
	upstream string
	retry    remote.RetryPolicy
	hc       *http.Client

	reg        *metrics.Registry
	reconnects *metrics.Counter
	events     *metrics.Counter
	samples    *metrics.Counter
	reads      *metrics.Counter
	streams    *metrics.Gauge
}

// New returns a gateway that relays from the upstream base URL
// (e.g. "http://control:9090").
func New(upstream string) *Gateway {
	reg := metrics.NewRegistry()
	return &Gateway{
		upstream:   upstream,
		retry:      remote.DefaultRetryPolicy,
		reg:        reg,
		reconnects: reg.Counter("blab_feedgw_reconnects_total", "upstream stream reconnects (resume-cursor replays)"),
		events:     reg.Counter("blab_feedgw_events_relayed_total", "phase events relayed to downstream clients"),
		samples:    reg.Counter("blab_feedgw_samples_relayed_total", "live samples relayed to downstream clients"),
		reads:      reg.Counter("blab_feedgw_reads_proxied_total", "status/analytics reads proxied upstream"),
		streams:    reg.Gauge("blab_feedgw_streams", "client streams currently open"),
	}
}

// SetRetryPolicy tunes the upstream reconnect budget and backoff.
func (g *Gateway) SetRetryPolicy(rp remote.RetryPolicy) {
	if rp.Attempts < 1 {
		rp.Attempts = 1
	}
	g.retry = rp
}

// SetHTTPClient swaps the HTTP client used for upstream subscriptions
// (custom TLS, timeouts).
func (g *Gateway) SetHTTPClient(hc *http.Client) { g.hc = hc }

// MetricsRegistry exposes the gateway's registry so embedders can add
// their own series to the same endpoint.
func (g *Gateway) MetricsRegistry() *metrics.Registry { return g.reg }

// Upstream reports the upstream base URL.
func (g *Gateway) Upstream() string { return g.upstream }

// Handler mounts the gateway routes: the two v1 streaming routes it
// relays, its own metrics, and an unauthenticated liveness probe.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/builds/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		g.relay(w, r, false)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/samples", func(w http.ResponseWriter, r *http.Request) {
		g.relay(w, r, true)
	})
	mux.HandleFunc("GET /api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := g.reg.Snapshot()
		switch r.URL.Query().Get("format") {
		case "", "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics.WritePrometheus(w, snap)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			metrics.WriteJSON(w, snap)
		default:
			writeErr(w, &api.Error{Code: api.CodeBadRequest, Message: "?format= must be prom or json"})
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// Dashboard-read parity: the two snapshot reads a feed consumer
	// needs next to its streams — build status (for the feed epoch and
	// terminal state) and trace analytics — proxy upstream with the
	// client's own token. Everything else under /api/v1/ is control-
	// plane work this gateway deliberately does not relay: a typed 501
	// tells clients to talk to the control server, instead of a bare
	// 404 that reads like "no such build".
	mux.HandleFunc("GET /api/v1/builds/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.proxyRead(w, r)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/analytics", func(w http.ResponseWriter, r *http.Request) {
		g.proxyRead(w, r)
	})
	mux.HandleFunc("/api/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, &api.Error{Code: api.CodeNotRelayed,
			Message: fmt.Sprintf("feed gateway: %s %s is not relayed; only build streams, status and analytics are — use the control server at %s", r.Method, r.URL.Path, g.upstream)})
	})
	return mux
}

// proxyRead forwards one GET (path + query + bearer token) upstream
// verbatim and copies the response back, envelope and status included —
// the gateway adds no interpretation, so upstream auth and typed errors
// apply per-client exactly as on a direct connection.
func (g *Gateway) proxyRead(w http.ResponseWriter, r *http.Request) {
	u := g.upstream + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		writeErr(w, &api.Error{Code: api.CodeInternal, Message: err.Error()})
		return
	}
	if tok := r.Header.Get("Authorization"); tok != "" {
		req.Header.Set("Authorization", tok)
	}
	hc := g.hc
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		writeErr(w, &api.Error{Code: api.CodeInternal, Message: "upstream: " + err.Error()})
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	g.reads.Inc()
}

// writeErr writes the typed v1 error envelope at its canonical status.
func writeErr(w http.ResponseWriter, e *api.Error) {
	data, err := json.Marshal(api.Envelope{Error: e})
	if err != nil {
		http.Error(w, e.Message, e.HTTPStatus())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.HTTPStatus())
	w.Write(append(data, '\n'))
}

// passErr relays an upstream failure to the client: typed envelopes
// pass through verbatim (the upstream's 401/403/404 is the client's
// 401/403/404), anything else — an unreachable upstream after the
// retry budget — becomes an internal envelope.
func passErr(w http.ResponseWriter, err error) {
	var ae *api.Error
	if errors.As(err, &ae) {
		writeErr(w, ae)
		return
	}
	writeErr(w, &api.Error{Code: api.CodeInternal, Message: "upstream: " + err.Error()})
}

// relay serves one client stream by following the upstream stream,
// reconnecting from the accumulated cursor across transient upstream
// failures. samples selects the sample route (framed binary or NDJSON);
// otherwise the NDJSON event route is relayed line by line.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, samples bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, &api.Error{Code: api.CodeBadRequest, Message: "build id must be an integer"})
		return
	}
	// Local ?from= validation: garbage cursors are the client's bug and
	// must not cost an upstream round trip. Same typed code as the
	// direct path, so clients branch identically either way.
	cursor := 0
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			writeErr(w, &api.Error{Code: api.CodeInvalidCursor, Message: "?from= must be a non-negative integer"})
			return
		}
		cursor = n
	}
	format := ""
	if samples {
		format = r.URL.Query().Get("format")
		switch format {
		case "", "binary", "ndjson":
		default:
			writeErr(w, &api.Error{Code: api.CodeBadRequest, Message: "?format= must be binary or ndjson"})
			return
		}
	}

	plat, err := remote.Dial(g.upstream, api.BearerToken(r))
	if err != nil {
		writeErr(w, &api.Error{Code: api.CodeInternal, Message: err.Error()})
		return
	}
	plat.SetRetryPolicy(g.retry)
	if g.hc != nil {
		plat.SetHTTPClient(g.hc)
	}
	ctx := r.Context()

	// The epoch pin. A reconnect splices the upstream's replay onto what
	// this stream already delivered, which is only sound while the
	// upstream feed is the same incarnation the first bytes came from.
	st, err := plat.BuildStatus(ctx, id)
	if err != nil {
		passErr(w, err)
		return
	}
	if st.State == api.StateExpired {
		// Parity with the direct streaming path: an expired build's
		// stream is a 404, not the status route's 200 marker.
		writeErr(w, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("build %d expired upstream", id)})
		return
	}
	epoch := st.FeedEpoch

	if samples && format != "ndjson" {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	g.streams.Inc()
	defer g.streams.Dec()
	flusher, _ := w.(http.Flusher)

	path := func() string {
		if samples {
			p := fmt.Sprintf("/api/v1/builds/%d/samples?from=%d", id, cursor)
			if format != "" {
				p += "&format=" + format
			}
			return p
		}
		return fmt.Sprintf("/api/v1/builds/%d/events?from=%d", id, cursor)
	}

	failures := 0
	connected := false
	for {
		if ctx.Err() != nil {
			return
		}
		rc, err := plat.OpenStream(ctx, path())
		if err != nil {
			// Past the 200 header the only honest move on a permanent
			// error is to end the stream: the client resumes from its own
			// cursor and gets the typed error then.
			if !remote.IsTransient(err) {
				return
			}
			failures++
			if failures >= g.retry.Attempts || !g.retry.Sleep(ctx, failures) {
				return
			}
			g.reconnects.Inc()
			continue
		}
		if connected {
			g.reconnects.Inc()
		}
		connected = true
		var n int
		if samples && format != "ndjson" {
			n, err = g.relayFrames(w, flusher, rc, &cursor)
		} else {
			n, err = g.relayLines(w, flusher, rc, &cursor, samples)
		}
		rc.Close()
		if err == nil {
			return // clean upstream end of stream: the feed closed and drained
		}
		if ctx.Err() != nil {
			return
		}
		if n > 0 {
			failures = 0 // progress refills the reconnect budget
		}
		failures++
		if failures >= g.retry.Attempts {
			return
		}
		// Severed mid-stream: resuming from the cursor is only valid
		// against the same feed incarnation.
		if st, serr := plat.BuildStatus(ctx, id); serr != nil || st.FeedEpoch != epoch {
			return
		}
		if !g.retry.Sleep(ctx, failures) {
			return
		}
	}
}

// relayLines copies an NDJSON stream line by line, advancing the cursor
// per line. A nil error is the upstream's clean end of stream.
func (g *Gateway) relayLines(w io.Writer, flusher http.Flusher, rc io.Reader, cursor *int, samples bool) (int, error) {
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return n, nil // client gone; treat as a clean end
		}
		if flusher != nil {
			flusher.Flush()
		}
		*cursor++
		n++
		if samples {
			g.samples.Inc()
		} else {
			g.events.Inc()
		}
	}
	return n, sc.Err()
}

// relayFrames copies the framed binary sample stream frame by frame.
// Each upstream frame is read whole and decoded — to vet it and to
// count its points for the cursor — and then the bytes that arrived
// are what goes downstream, so they match a direct connection by
// construction and a frame cut short upstream is never forwarded in
// part.
func (g *Gateway) relayFrames(w io.Writer, flusher http.Flusher, rc io.Reader, cursor *int) (int, error) {
	br := bufio.NewReader(rc)
	var frame []byte
	n := 0
	for {
		var pts int
		var err error
		frame, pts, err = api.ReadRawSampleFrame(br, frame)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if _, werr := w.Write(frame); werr != nil {
			return n, nil // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
		*cursor += pts
		n += pts
		g.samples.Add(int64(pts))
	}
}
