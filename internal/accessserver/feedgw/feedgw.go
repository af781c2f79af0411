// Package feedgw is the access server's feed-gateway mode: a stateless
// relay that serves the v1 streaming routes (build events and live
// samples) by subscribing to an upstream control server through
// internal/remote, instead of owning a scheduler of its own.
//
// The control/data plane split makes this possible: the streaming
// routes depend only on the feed plane (a build id, a resume cursor, a
// feed epoch), all of which the v1 API already carries on the wire. A
// gateway deployed next to a dashboard fleet holds its client
// connections, but it does not fan out: it holds exactly one upstream
// subscription per active client stream, so k subscribers to one build
// cost the upstream k streams, as k direct clients would. It follows
// that subscription with the same loop every remote follower uses
// (remote's Platform.Follow): when its upstream connection breaks, it
// reconnects from its accumulated cursor (`?from=`) so clients see an
// uninterrupted, exactly-once stream. A clean upstream end means the
// feed closed, and ends the client's stream cleanly; any other end —
// the reconnect budget spent, a permanent upstream error, or a feed
// epoch that moved (a server restart re-created the feed, so the cursor
// is void and two replays must not be spliced) — aborts the client
// connection, so a truncated stream never reads as a complete one.
//
// Auth is pass-through: the client's bearer token is forwarded
// upstream, so the gateway needs no user database and upstream
// permission checks still apply per-client.
package feedgw

import (
	"bufio"
	"bytes"
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

// SetRetryPolicy tunes the upstream reconnect budget and backoff: each
// client stream's follower runs under it.
func (g *Gateway) SetRetryPolicy(rp remote.RetryPolicy) { g.retry = rp }

// MetricsRegistry exposes the gateway's registry so embedders can add
// their own series to the same endpoint.
func (g *Gateway) MetricsRegistry() *metrics.Registry { return g.reg }

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
		if err := metrics.Serve(w, r.URL.Query().Get("format"), g.reg.Snapshot()); err != nil {
			api.WriteError(w, &api.Error{Code: api.CodeBadRequest, Message: err.Error()})
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
		api.WriteError(w, &api.Error{Code: api.CodeNotRelayed,
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
		api.WriteError(w, &api.Error{Code: api.CodeInternal, Message: err.Error()})
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
		api.WriteError(w, &api.Error{Code: api.CodeInternal, Message: "upstream: " + err.Error()})
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

// passErr relays an upstream failure to the client: typed envelopes
// pass through verbatim (the upstream's 401/403/404 is the client's
// 401/403/404), anything else — an unreachable upstream after the
// retry budget — becomes an internal envelope.
func passErr(w http.ResponseWriter, err error) {
	var ae *api.Error
	if errors.As(err, &ae) {
		api.WriteError(w, ae)
		return
	}
	api.WriteError(w, &api.Error{Code: api.CodeInternal, Message: "upstream: " + err.Error()})
}

// relay serves one client stream by following the upstream stream
// through remote's one follower (Platform.Follow), which resumes a
// broken upstream connection from the accumulated cursor. samples
// selects the sample route (framed binary or NDJSON); otherwise the
// NDJSON event route is relayed line by line. A clean upstream end —
// the feed closed — ends the client's stream cleanly; whenever the
// gateway stops short of one it aborts the client connection, so the
// client reads a broken stream rather than a truncated one that looks
// complete.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, samples bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, &api.Error{Code: api.CodeBadRequest, Message: "build id must be an integer"})
		return
	}
	// Local query validation: garbage is the client's bug and must not
	// cost an upstream round trip. Same typed codes as the direct path,
	// so clients branch identically either way.
	from, ndjson, qerr := api.StreamQuery(r, samples)
	if qerr != nil {
		api.WriteError(w, qerr)
		return
	}

	plat, err := remote.Dial(g.upstream, api.BearerToken(r))
	if err != nil {
		api.WriteError(w, &api.Error{Code: api.CodeInternal, Message: err.Error()})
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
		api.WriteError(w, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("build %d expired upstream", id)})
		return
	}

	flusher, _ := w.(http.Flusher)
	s := &remote.Stream{Route: "events", From: from, Epoch: st.FeedEpoch,
		Consume: func(body io.Reader) (int, error) { return relayLines(w, flusher, body, g.events) },
		// Abort, don't splice: what went downstream cannot be taken back.
		Restart: func() error { return errors.New("feed gateway: the upstream feed started over") },
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	switch {
	case samples && ndjson:
		s.Route = "samples?format=ndjson"
		s.Consume = func(body io.Reader) (int, error) { return relayLines(w, flusher, body, g.samples) }
	case samples:
		s.Route = "samples"
		s.Consume = func(body io.Reader) (int, error) { return relayFrames(w, flusher, body, g.samples) }
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.WriteHeader(http.StatusOK)
	g.streams.Inc()
	defer g.streams.Dec()

	err = plat.Follow(ctx, id, s)
	g.reconnects.Add(plat.Stats().StreamReconnects)
	if err != nil {
		// Past the 200 header a broken connection is the only way left to
		// tell the client its stream is short; it resumes from its own
		// cursor and gets any typed error then.
		panic(http.ErrAbortHandler)
	}
}

// relayLines copies an NDJSON stream line by line, counting each in
// relayed, and reports how many lines it forwarded. Only whole lines go
// downstream; a nil error is the upstream's clean end of stream.
func relayLines(w io.Writer, flusher http.Flusher, body io.Reader, relayed *metrics.Counter) (int, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	sc.Split(wholeLines)
	n := 0
	for sc.Scan() {
		if _, err := w.Write(sc.Bytes()); err != nil {
			return n, nil // client gone; treat as a clean end
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
		relayed.Inc()
	}
	return n, sc.Err()
}

// wholeLines is bufio.ScanLines without its last-line leniency: a token
// ends at '\n' and keeps it, and bytes left without one when the stream
// ends are a line cut short — a broken end, never forwarded.
func wholeLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return 0, nil, nil
}

// relayFrames copies the framed binary sample stream frame by frame,
// counting its points in relayed, and reports how many it forwarded.
// Each upstream frame is read whole and decoded — to vet it and to
// count its points for the cursor — and then the bytes that arrived are
// what goes downstream, so they match a direct connection by
// construction and a frame cut short upstream is never forwarded in
// part.
func relayFrames(w io.Writer, flusher http.Flusher, body io.Reader, relayed *metrics.Counter) (int, error) {
	br := bufio.NewReader(body)
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
		n += pts
		relayed.Add(int64(pts))
	}
}
