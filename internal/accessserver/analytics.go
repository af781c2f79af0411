package accessserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"batterylab/internal/analytics"
	"batterylab/internal/api"
)

// Server-side trace analytics: GET /api/v1/builds/{id}/analytics runs
// windowed aggregates over a build's stored binary trace through the
// internal/analytics engine, behind a byte-bounded LRU of marshaled
// response bodies. Cache keys carry the build id, feed epoch, terminal
// state, artifact name and the resolved query, so anything that could
// change the answer — a recovery that re-ran the build, a different
// window — is a different key, and a repeat of the same query is a
// bit-identical body straight from memory.

// defaultTraceArtifact is the artifact the analytics route aggregates
// when ?artifact= is absent: the binary power trace the measurement
// pipeline saves at build finish.
const defaultTraceArtifact = "current.trace"

// serveAnalytics handles one analytics query for an authorized build.
func (s *Server) serveAnalytics(w http.ResponseWriter, r *http.Request, b *Build) {
	start := time.Now()
	q := r.URL.Query()
	artifact := q.Get("artifact")
	if artifact == "" {
		artifact = defaultTraceArtifact
	}
	var windowNS int64
	if ws := q.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			api.WriteError(w, apiError(codeBadRequest, "?window= must be a positive Go duration (e.g. 2s, 500ms)"))
			return
		}
		windowNS = d.Nanoseconds()
	}
	var fields []string
	if fs := q.Get("fields"); fs != "" {
		fields = strings.Split(fs, ",")
	}
	fields, err := analytics.NormalizeFields(fields)
	if err != nil {
		api.WriteError(w, apiError(codeBadRequest, err.Error()))
		return
	}

	// Only finished builds are served: before the terminal transition
	// the trace artifact does not exist (or is mid-replacement during a
	// failover re-run), and a stable answer is what makes it cacheable.
	if st := b.State(); st != StateSuccess && st != StateFailure && st != StateAborted {
		writeError(w, fmt.Errorf("%w: build %d is %s; analytics needs a finished build", ErrConflict, b.ID, st))
		return
	}

	serve := func(body []byte, cache string) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", cache)
		w.Write(body)
		s.m.analyticsLatency.Observe(time.Since(start).Seconds())
	}

	key := fmt.Sprintf("%d|%d|%s|%s|%d|%s",
		b.ID, b.FeedEpoch(), b.State(), artifact, windowNS, strings.Join(fields, ","))
	if body, ok := s.analyticsCache.Get(key); ok {
		s.m.analyticsHits.Inc()
		serve(body, "hit")
		return
	}
	s.m.analyticsMisses.Inc()

	data, err := b.Workspace().Load(artifact)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := analytics.ComputeBinary(data, api.AnalyticsQuery{WindowNS: windowNS, Fields: fields, Artifact: artifact})
	if err != nil {
		if errors.Is(err, analytics.ErrBadQuery) {
			api.WriteError(w, apiError(codeBadRequest, err.Error()))
		} else {
			api.WriteError(w, apiError(codeInternal, "decoding artifact "+artifact+": "+err.Error()))
		}
		return
	}
	res.BuildID = b.ID

	body, err := json.Marshal(res)
	if err != nil {
		api.WriteError(w, apiError(codeInternal, "encoding response: "+err.Error()))
		return
	}
	body = append(body, '\n')
	s.analyticsCache.Put(key, body)
	serve(body, "miss")
}
