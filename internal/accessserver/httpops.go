package accessserver

import (
	"context"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"batterylab/internal/metrics"
)

// Operational HTTP surface: liveness/readiness probes, the RBAC-gated
// pprof handlers, and the instrumentation middleware every request
// passes through (request IDs, per-route counters and latency, one
// structured access-log line).

// ExpectDurable tells the readiness probe that this deployment runs
// with a durable store: /readyz answers 503 until AttachStore succeeds
// and whenever the WAL failure latch is down. Daemons set it when the
// operator asked for persistence; in-memory deployments leave it off
// and are ready immediately.
func (s *Server) ExpectDurable() { s.expectDurable.Store(true) }

// handlerOps mounts the probe and profiling routes.
//
//	GET /healthz  liveness: always 200 while the process serves
//	GET /readyz   readiness: 503 until the durable store (when
//	              expected) is attached and accepting appends
//	/debug/pprof  runtime profiles, PermManageNodes only
//
// The probes are unauthenticated by design — orchestrators and load
// balancers hold no bearer tokens — and leak nothing beyond a boolean
// health verdict.
func (s *Server) handlerOps(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		s.storeMu.Lock()
		attached := s.store != nil
		durable := attached && !s.storeFailed
		s.storeMu.Unlock()
		ready := true
		if s.expectDurable.Load() && !durable {
			ready = false
		}
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"ready":          ready,
			"store_attached": attached,
			"durable":        durable,
		})
	})

	// pprof's default registration is on the unauthenticated
	// DefaultServeMux; re-binding each handler behind the node-admin
	// permission keeps heap and CPU profiles (which embed file paths
	// and symbol names) off the public surface.
	gated := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if s.auth(w, r, PermManageNodes) == nil {
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("GET /debug/pprof/", gated(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", gated(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", gated(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", gated(pprof.Symbol))
	mux.HandleFunc("POST /debug/pprof/symbol", gated(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", gated(pprof.Trace))
}

// statusRecorder captures the status code and body size a handler
// writes, and forwards Flush so the streaming endpoints keep their
// incremental delivery through the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.status = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	sr.wrote = true
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// sanitizeRequestID vets a client-supplied X-Request-Id before it is
// echoed into the response and every access-log line: at most 64
// characters from [A-Za-z0-9._-], so a client cannot inject log
// delimiters, control bytes, or megabyte-sized values. Anything else
// returns "" and the caller mints a fresh ID.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// instrument wraps the mux with the observability middleware: a
// request ID (honoring a well-formed inbound X-Request-Id so a
// client's trace stitches through), per-route request counters and
// latency histograms keyed by the mux pattern — never the raw path,
// which would explode label cardinality — and one structured
// access-log line per request.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	// The registry handles a request reports to, resolved once per
	// (route, status) and then read lock-free: the registry's own lookup
	// takes its mutex and rebuilds the label key every time.
	type routeCode struct {
		route string
		code  int
	}
	type handles struct {
		requests *metrics.Counter
		latency  *metrics.Histogram
	}
	var cache sync.Map // routeCode → handles
	resolve := func(route string, code int) handles {
		key := routeCode{route, code}
		if h, ok := cache.Load(key); ok {
			return h.(handles)
		}
		h := handles{
			requests: s.m.reg.Counter("blab_http_requests_total", "HTTP requests by route and status",
				metrics.L("route", route, "code", strconv.Itoa(code))...),
			latency: s.m.reg.Histogram("blab_http_request_seconds", "HTTP request latency by route",
				metrics.L("route", route)...),
		}
		cache.Store(key, h)
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if reqID == "" {
			var b [8]byte
			seq := s.m.reqSeq.Add(1)
			for i := 0; i < 8; i++ {
				b[i] = byte(seq >> (56 - 8*i))
			}
			reqID = hex.EncodeToString(b[:])
		}
		w.Header().Set("X-Request-Id", reqID)

		s.m.httpInFlight.Inc()
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sr, r)
		elapsed := time.Since(start)
		s.m.httpInFlight.Dec()

		// The mux's dispatch left the matched pattern on the request; a
		// 404 or 405 matched none.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		h := resolve(route, sr.status)
		h.requests.Inc()
		h.latency.Observe(elapsed.Seconds())

		s.slogger().LogAttrs(context.Background(), slog.LevelInfo, "http",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", sr.status),
			slog.Int64("bytes", sr.bytes),
			slog.Duration("duration", elapsed),
		)
	})
}
