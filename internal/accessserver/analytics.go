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
// bit-identical body straight from memory. A miss on a build this server
// measured takes its Total row from the summary the build stored (see
// storedTotal), so it folds only the windows.

// defaultTraceArtifact is the artifact the analytics route aggregates
// when ?artifact= is absent: the binary power trace the measurement
// pipeline saves at build finish.
const defaultTraceArtifact = "current.trace"

// serveAnalytics handles one analytics query for an authorized build,
// read from its published cell.
func (s *Server) serveAnalytics(w http.ResponseWriter, r *http.Request, ss *servedStatus) {
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

	// Only builds whose published status is terminal are served: before
	// the terminal transition the trace artifact does not exist (or is
	// mid-replacement during a failover re-run), a settlement is not
	// shown before it is logged, and a stable answer is what makes it
	// cacheable.
	st := &ss.st
	if !st.Terminal() {
		writeError(w, fmt.Errorf("%w: build %d is %s; analytics needs a finished build", ErrConflict, st.ID, st.State))
		return
	}

	serve := func(body []byte, cache string) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", cache)
		w.Write(body)
		s.m.analyticsLatency.Observe(time.Since(start).Seconds())
	}

	key := fmt.Sprintf("%d|%d|%s|%s|%d|%s",
		st.ID, st.FeedEpoch, st.State, artifact, windowNS, strings.Join(fields, ","))
	if body, ok := s.analyticsCache.Get(key); ok {
		s.m.analyticsHits.Inc()
		serve(body, "hit")
		return
	}
	s.m.analyticsMisses.Inc()

	data, err := ss.ws.Load(artifact)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := analytics.ComputeBinary(data, api.AnalyticsQuery{WindowNS: windowNS, Fields: fields, Artifact: artifact}, storedTotal(st, artifact))
	if err != nil {
		if errors.Is(err, analytics.ErrBadQuery) {
			api.WriteError(w, apiError(codeBadRequest, err.Error()))
		} else {
			api.WriteError(w, apiError(codeInternal, "decoding artifact "+artifact+": "+err.Error()))
		}
		return
	}
	res.BuildID = st.ID

	body, err := json.Marshal(res)
	if err != nil {
		api.WriteError(w, apiError(codeInternal, "encoding response: "+err.Error()))
		return
	}
	body = append(body, '\n')
	s.analyticsCache.Put(key, body)
	serve(body, "miss")
}

// storedTotal is the summary a build stored of its power trace, when it
// is the analytics Total of the artifact's bytes: the artifact is the
// power trace, the status trusts the summary as its rollup
// (api.BuildStatus.StoredRollup), and its quantiles are exact. nil means
// fold: a summary stored with P² quantiles is not a Total.
func storedTotal(st *api.BuildStatus, artifact string) *api.RunSummary {
	if artifact != defaultTraceArtifact {
		return nil
	}
	if r := st.StoredRollup(); r != nil && r.ExactQuantiles {
		return r
	}
	return nil
}
