package accessserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
	"batterylab/internal/metrics"
)

// The versioned remote-execution API. Wire types and the JSON schema
// live in internal/api; this file is the HTTP binding:
//
//	GET  /api/v1/nodes                        vantage points + devices + health
//	GET  /api/v1/nodes/{name}                 node lifecycle detail
//	POST /api/v1/nodes/{name}/drain           stop new dispatch (admin)
//	POST /api/v1/nodes/{name}/undrain         reopen for dispatch (admin)
//	POST /api/v1/nodes/{name}/remove          unregister; running builds finish (admin)
//	POST /api/v1/nodes/{name}/owner           set the hosting member who earns
//	                                          contribution credits (admin)
//	GET  /api/v1/workloads                    registry workload names
//	GET  /api/v1/jobs                         stored jobs (§3.1)
//	PUT  /api/v1/jobs/{name}                  create a job, or edit it: body is
//	                                          its ExperimentSpec; the revision
//	                                          awaits approval unless an admin's
//	POST /api/v1/jobs/{name}/approve          approve the current revision (admin)
//	POST /api/v1/jobs/{name}/builds           queue a build of the approved revision
//	DELETE /api/v1/jobs/{name}                delete; its queued builds fail typed
//	POST /api/v1/experiments                  submit an ExperimentSpec → build
//	POST /api/v1/campaigns                    submit a CampaignSpec → builds
//	GET  /api/v1/campaigns/{id}               campaign status
//	GET  /api/v1/builds/{id}                  build status (+ run summary)
//	GET  /api/v1/builds/{id}/events           phase events, streamed NDJSON
//	GET  /api/v1/builds/{id}/samples          live power samples: framed
//	                                          binary traces (default) or
//	                                          ?format=ndjson
//	GET  /api/v1/builds/{id}/analytics        windowed trace aggregates:
//	                                          ?window=2s&fields=mean,energy
//	                                          &artifact=current.trace
//	GET  /api/v1/builds/{id}/artifacts        artifact names
//	GET  /api/v1/builds/{id}/artifacts/{name} raw artifact bytes
//	POST /api/v1/builds/{id}/cancel           abort a queued/running build
//
// Every non-2xx response body is the api.Error envelope.

// Error-code aliases keep the HTTP files terse.
const (
	codeBadRequest   = api.CodeBadRequest
	codeUnauthorized = api.CodeUnauthorized
	codeForbidden    = api.CodeForbidden
	codeNotFound     = api.CodeNotFound
	codeConflict     = api.CodeConflict
	codeInternal     = api.CodeInternal
)

// Submission body bounds: a spec is well under a kilobyte of JSON, so
// even a maximal campaign (MaxCampaignExperiments specs) fits these
// with slack; anything larger is a client bug or abuse.
const (
	maxSpecBodyBytes     = 1 << 20  // 1 MiB
	maxCampaignBodyBytes = 64 << 20 // 64 MiB
)

func apiError(code api.ErrorCode, msg string) *api.Error {
	return &api.Error{Code: code, Message: msg}
}

// Handler returns the server's HTTP API: the versioned remote-execution
// routes (handlerV1; wire schema in internal/api) and the operational
// ones (handlerOps). Every API request needs a valid user token in the
// Authorization header ("Bearer <token>"); the role matrix gates each
// route. In deployment this sits behind HTTPS only (§3.1) —
// transport security is the listener's concern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handlerV1(mux)
	s.handlerOps(mux)
	return s.instrument(mux)
}

// handlerV1 mounts the v1 routes on mux.
func (s *Server) handlerV1(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		writeJSON(w, http.StatusOK, s.NodeInfos())
	})
	mux.HandleFunc("GET /api/v1/nodes/{name}", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		name := r.PathValue("name")
		// Census-served: the detail route never touches s.mu.
		st, ok := s.reads.node(name)
		if !ok || !st.known() {
			writeError(w, errNoNode(name))
			return
		}
		// Monitored nodes serve the cached device list: this endpoint
		// diagnoses sick nodes, so it must never block on a live
		// list_devices round trip to one.
		devs := st.Devices
		if !st.Monitored && st.node != nil {
			devs, _ = listDevices(st.node)
		}
		detail := api.NodeDetail{
			Name:          name,
			Devices:       devs,
			Health:        s.censusHealth(st, s.clock.Now()).String(),
			Monitored:     st.Monitored,
			Draining:      st.Draining,
			RunningBuilds: st.Running,
			QueuedBuilds:  st.Queued,
		}
		if !st.LastHeartbeat.IsZero() {
			detail.LastHeartbeatNS = st.LastHeartbeat.UnixNano()
		}
		writeJSON(w, http.StatusOK, detail)
	})
	// named binds the Server methods of shape (user, name) → error: the
	// node lifecycle verbs and the job approve/delete verbs.
	named := func(perm Permission, action func(*User, string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			user := s.auth(w, r, perm)
			if user == nil {
				return
			}
			if err := action(user, r.PathValue("name")); err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		}
	}
	mux.HandleFunc("POST /api/v1/nodes/{name}/drain", named(PermManageNodes, s.DrainNode))
	mux.HandleFunc("POST /api/v1/nodes/{name}/undrain", named(PermManageNodes, s.UndrainNode))
	mux.HandleFunc("POST /api/v1/nodes/{name}/remove", named(PermManageNodes, s.RemoveNode))
	mux.HandleFunc("POST /api/v1/nodes/{name}/owner", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermManageNodes) == nil {
			return
		}
		var body struct {
			Owner string `json:"owner"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBodyBytes)).Decode(&body); err != nil {
			api.WriteError(w, apiError(codeBadRequest, "decoding owner body: "+err.Error()))
			return
		}
		name := r.PathValue("name")
		if _, err := s.reads.handle(name); err != nil {
			writeError(w, err)
			return
		}
		// "" clears ownership; otherwise the owner must be a member, or
		// their contribution credits would accrue to a void.
		if body.Owner != "" {
			if _, err := s.Users.Lookup(body.Owner); err != nil {
				api.WriteError(w, apiError(codeNotFound, "no member "+body.Owner))
				return
			}
		}
		s.SetNodeOwner(name, body.Owner)
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /api/v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		names := s.WorkloadNames()
		if names == nil {
			names = []string{}
		}
		writeJSON(w, http.StatusOK, names)
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		jobs := s.Jobs()
		infos := make([]api.JobInfo, len(jobs))
		for i, j := range jobs {
			infos[i] = jobInfo(j)
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("PUT /api/v1/jobs/{name}", func(w http.ResponseWriter, r *http.Request) {
		user := s.auth(w, r, PermCreateJob)
		if user == nil {
			return
		}
		var spec api.ExperimentSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBodyBytes)).Decode(&spec); err != nil {
			api.WriteError(w, apiError(codeBadRequest, "decoding experiment spec: "+err.Error()))
			return
		}
		name := r.PathValue("name")
		_, err := s.CreateJob(user, name, spec)
		if errors.Is(err, ErrConflict) {
			err = s.EditJob(user, name, spec)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		j, err := s.Job(name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, jobInfo(j))
	})
	mux.HandleFunc("POST /api/v1/jobs/{name}/approve", named(PermApprovePipeline, s.ApproveJob))
	mux.HandleFunc("DELETE /api/v1/jobs/{name}", named(PermEditJob, s.DeleteJob))
	mux.HandleFunc("POST /api/v1/jobs/{name}/builds", func(w http.ResponseWriter, r *http.Request) {
		user := s.auth(w, r, PermRunJob)
		if user == nil {
			return
		}
		b, err := s.Submit(user, r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, api.SubmitResponse{Build: b.ID, State: b.State().String()})
	})
	mux.HandleFunc("POST /api/v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		user := s.auth(w, r, PermRunJob)
		if user == nil {
			return
		}
		var spec api.ExperimentSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBodyBytes)).Decode(&spec); err != nil {
			api.WriteError(w, apiError(codeBadRequest, "decoding experiment spec: "+err.Error()))
			return
		}
		b, err := s.SubmitSpec(user, spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, api.SubmitResponse{Build: b.ID, State: b.State().String()})
	})
	mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		user := s.auth(w, r, PermRunJob)
		if user == nil {
			return
		}
		var spec api.CampaignSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCampaignBodyBytes)).Decode(&spec); err != nil {
			api.WriteError(w, apiError(codeBadRequest, "decoding campaign spec: "+err.Error()))
			return
		}
		id, builds, err := s.SubmitCampaign(user, spec)
		if err != nil {
			writeError(w, err)
			return
		}
		resp := api.CampaignResponse{Campaign: id, Builds: make([]int, len(builds))}
		for i, b := range builds {
			resp.Builds[i] = b.ID
		}
		writeJSON(w, http.StatusAccepted, resp)
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			api.WriteError(w, apiError(codeBadRequest, "campaign id must be an integer"))
			return
		}
		// Snapshot-served: membership and member statuses come from the
		// read plane, each member as its cached encoding with the drop
		// counters read live from its feed. No scheduler lock on this path.
		ids, ok := s.reads.campaign(id)
		if !ok {
			if s.reads.campaignExpired(id) {
				writeError(w, fmt.Errorf("%w: campaign %d expired after its %s retention window", ErrExpired, id, s.cfg.Retention))
			} else {
				writeError(w, fmt.Errorf("%w: no campaign %d", ErrNotFound, id))
			}
			return
		}
		body, err := campaignBody(id, ids, func(bid int) (*servedStatus, int64, int64) {
			ss, _ := s.reads.build(bid)
			if ss == nil {
				// A member is issued with its campaign, so it aged out of
				// retention.
				ss = expiredStatus(bid)
			}
			events, samples := ss.dropped()
			return ss, events, samples
		})
		writeEncoded(w, http.StatusOK, body, err)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}", func(w http.ResponseWriter, r *http.Request) {
		// The hot poll path: served from the read plane's published
		// snapshot, lock-free with respect to dispatch. Each scheduler
		// section republishes what it changed at its exit, after its WAL
		// write and in section order, so polls observe monotonic state
		// that is already in the log. A published version is marshalled
		// once, at its first read, and every later poll writes those
		// bytes. Drop counters move without a scheduler transition
		// (producer-side shedding), so they are read live from the
		// build's feed — a leaf lock, never s.mu — and spliced in. A build
		// that aged out gets an explicit marker, not a 404: clients
		// distinguish "expired" from "never existed".
		if ss := s.buildFromPath(w, r, true); ss != nil {
			events, samples := ss.dropped()
			writeStatus(w, ss, events, samples)
		}
	})
	mux.HandleFunc("GET /api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		if err := metrics.Serve(w, r.URL.Query().Get("format"), s.MetricsSnapshot()); err != nil {
			api.WriteError(w, apiError(codeBadRequest, err.Error()))
		}
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if ss := s.buildFromPath(w, r, false); ss != nil {
			s.streamFeed(w, r, ss.feed, false)
		}
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/samples", func(w http.ResponseWriter, r *http.Request) {
		if ss := s.buildFromPath(w, r, false); ss != nil {
			s.streamFeed(w, r, ss.feed, true)
		}
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/analytics", func(w http.ResponseWriter, r *http.Request) {
		if ss := s.buildFromPath(w, r, false); ss != nil {
			s.serveAnalytics(w, r, ss)
		}
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/artifacts", func(w http.ResponseWriter, r *http.Request) {
		if ss := s.buildFromPath(w, r, false); ss != nil {
			writeJSON(w, http.StatusOK, ss.ws.List())
		}
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		ss := s.buildFromPath(w, r, false)
		if ss == nil {
			return
		}
		// Load renders a view (current.csv) whole before any header is
		// written: a source that does not render is a typed error, never
		// a partial 200.
		data, err := ss.ws.Load(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		// A declared length: a trace larger than the server's write
		// buffer is not sent chunked, and the client sizes its buffer once.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	})
	s.handlerCluster(mux)
	mux.HandleFunc("POST /api/v1/builds/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		user := s.auth(w, r, PermRunJob)
		if user == nil {
			return
		}
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			api.WriteError(w, apiError(codeBadRequest, "build id must be an integer"))
			return
		}
		if err := s.Abort(user, id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"canceled": true})
	})
}

// jobInfo is a job's wire form.
func jobInfo(j Job) api.JobInfo {
	return api.JobInfo{Name: j.Name, Owner: j.Owner, Spec: j.Spec, Approved: j.Approved, Revision: j.Revision}
}

// auth authenticates the bearer token and checks the permission,
// writing the error response itself on failure.
func (s *Server) auth(w http.ResponseWriter, r *http.Request, perm Permission) *User {
	tok := api.BearerToken(r)
	user, err := s.Users.Authenticate(tok)
	if err != nil {
		if tok != "" && s.cluster.Authorize(tok) {
			// A federated peer holding the shared cluster token: it acts
			// as the synthetic "cluster" principal, whose RolePeer grants
			// exactly what relaying a build needs (submit, status,
			// streams, cancel).
			user = &User{Name: "cluster", Role: RolePeer}
		} else {
			api.WriteError(w, apiError(codeUnauthorized, "missing or invalid token"))
			return nil
		}
	}
	if !Allowed(user.Role, perm) {
		api.WriteError(w, apiError(codeForbidden,
			"role "+user.Role.String()+" may not "+perm.String()))
		return nil
	}
	return user
}

// buildFromPath resolves the {id} path segment through the read plane
// to the build's published cell — one lock-free lookup, never s.mu — and
// writes the error response itself: 400 for a malformed id, 404 for one
// never issued, and for an expired build a 404 or, with marker (the
// status route), the expired marker. Authentication runs first.
func (s *Server) buildFromPath(w http.ResponseWriter, r *http.Request, marker bool) *servedStatus {
	if s.auth(w, r, PermViewConsole) == nil {
		return nil
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, apiError(codeBadRequest, "build id must be an integer"))
		return nil
	}
	ss, expired := s.reads.build(id)
	switch {
	case ss != nil:
		return ss
	case expired && marker:
		return expiredStatus(id)
	case expired:
		writeError(w, fmt.Errorf("%w: build %d expired after its %s retention window", ErrExpired, id, s.cfg.Retention))
	default:
		writeError(w, fmt.Errorf("%w: no build %d", ErrNotFound, id))
	}
	return nil
}

// BuildStatus is what GET /api/v1/builds/{id} answers, read the same way,
// from the read plane and never under s.mu: the published status with the
// live drop counters, the expired marker (nil error) for an id that aged
// out of retention, or ErrNotFound for one never issued. It is final once
// the build's feed has closed.
func (s *Server) BuildStatus(id int) (api.BuildStatus, error) {
	ss, expired := s.reads.build(id)
	switch {
	case ss != nil:
		st := ss.st
		st.DroppedEvents, st.DroppedSamples = ss.dropped()
		return st, nil
	case expired:
		return expiredStatus(id).st, nil
	}
	return api.BuildStatus{}, fmt.Errorf("%w: no build %d", ErrNotFound, id)
}

// writeJSON marshals v up front (so encoding failures can still produce
// a 500 instead of a half-written 200), sets the status and writes the
// body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	writeEncoded(w, status, append(data, '\n'), err)
}

// writeEncoded writes an encoded JSON body under status, or the 500 its
// encoding failed with.
func writeEncoded(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		api.WriteError(w, apiError(codeInternal, "encoding response: "+err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeStatus writes a published status from its cached encoding with
// the live drop counters spliced in. With both zero, the common case,
// the cached bytes go out as they are.
func writeStatus(w http.ResponseWriter, ss *servedStatus, events, samples int64) {
	e, err := ss.encoding()
	var body []byte
	if err == nil {
		body = e.body
		if events != 0 || samples != 0 {
			body = append(e.appendTo(nil, events, samples), '\n')
		}
	}
	writeEncoded(w, http.StatusOK, body, err)
}

// campaignBody encodes campaign id's status, the bytes json.Marshal
// writes for its api.CampaignStatus plus '\n', from its members' cached
// encodings joined in member order. member resolves one member id to
// its served status and live drop counters.
func campaignBody(id int, ids []int, member func(int) (*servedStatus, int64, int64)) ([]byte, error) {
	body := strconv.AppendInt([]byte(`{"campaign":`), int64(id), 10)
	if len(ids) == 0 {
		return append(body, `,"builds":null}`+"\n"...), nil
	}
	body = append(body, `,"builds":[`...)
	for i, bid := range ids {
		ss, events, samples := member(bid)
		e, err := ss.encoding()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = e.appendTo(body, events, samples)
	}
	return append(body, "]}\n"...), nil
}

// expiredStatus is the marker served for a build that aged out of
// retention.
func expiredStatus(id int) *servedStatus {
	return &servedStatus{st: api.BuildStatus{ID: id, State: api.StateExpired}}
}

// writeError maps a server error to its HTTP status via the typed
// sentinels and writes the v1 error envelope. Unrecognized errors are
// internal (500) — never the blanket 409 of the original console.
func writeError(w http.ResponseWriter, err error) {
	code := codeInternal
	switch {
	case errors.Is(err, ErrExpired):
		// The resource existed but aged out of retention; only the v1
		// build-status route serves the explicit "expired" marker.
		code = codeNotFound
	case errors.Is(err, ErrJobDeleted):
		code = codeNotFound
	case errors.Is(err, ErrNotFound):
		code = codeNotFound
	case errors.Is(err, ErrForbidden):
		code = codeForbidden
	case errors.Is(err, ErrInvalid):
		code = codeBadRequest
	case errors.Is(err, ErrConflict):
		code = codeConflict
	case errors.Is(err, ErrInsufficientCredits):
		// 402: the §5 credit economy rejected the submission.
		code = api.CodeInsufficientCredits
	case errors.Is(err, ErrPeerUnavailable):
		// 503: the submission's only matching vantage point lives on a
		// federated peer that is not online right now. Retry-After hints
		// one peer heartbeat interval — transient by definition.
		if d := RetryAfterOf(err); d > 0 {
			secs := int((d + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		api.WriteError(w, apiError(api.CodePeerUnavailable, err.Error()))
		return
	case errors.Is(err, ErrOverloaded):
		// 429: admission control shed the submission. The envelope
		// carries the typed shed reason so clients can branch without
		// parsing the message.
		e := apiError(api.CodeOverloaded, err.Error())
		e.ShedReason = ShedReasonOf(err)
		api.WriteError(w, e)
		return
	}
	api.WriteError(w, apiError(code, err.Error()))
}

// NodeInfos lists the registered vantage points with their devices and
// health: what GET /api/v1/nodes serves, and what an in-process client
// lists. It is snapshot-served: one load of the published census is one
// consistent view of the fleet, rows and membership, so a fleet-listing
// flood is lock-free with respect to dispatch. Health is recomputed
// against the current clock because silence ages a node without
// republishing.
func (s *Server) NodeInfos() []api.NodeInfo {
	now := s.clock.Now()
	rows := s.reads.nodeList()
	infos := make([]api.NodeInfo, 0, len(rows))
	for _, e := range rows {
		if e.node == nil {
			continue
		}
		devs := e.Devices
		if !e.Monitored {
			// Monitored nodes serve the cached device list: one hung
			// vantage point must not stall the whole fleet listing on a
			// live list_devices round trip.
			devs, _ = listDevices(e.node)
		}
		infos = append(infos, api.NodeInfo{
			Name:    e.Name,
			Devices: devs,
			Health:  s.censusHealth(e, now).String(),
		})
	}
	return infos
}

// streamFeed serves one of a build's two streams from its feed: the
// NDJSON phase events, or (samples) the live power samples as
// length-prefixed binary trace frames by default (the compact v2 codec
// of internal/trace, see api.WriteSampleFrame) or NDJSON SamplePoint
// lines with ?format=ndjson. It replays the feed from the ?from= cursor
// (default 0, counting records) and then follows — a client that lost
// its connection after n records resumes with ?from=n. The feed it reads
// is bounded and drop-under-backpressure, so however slowly this
// consumer drains, the capture loop never blocks. The 200 header is
// flushed as the stream opens. The response ends cleanly only when the
// feed has closed and every record went out.
func (s *Server) streamFeed(w http.ResponseWriter, r *http.Request, f *feedhub.Feed, samples bool) {
	cursor, ndjson, e := api.StreamQuery(r, samples)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	fromEvents, fromSamples, subscribers := cursor, math.MaxInt, s.m.eventSubscribers
	if samples {
		fromEvents, fromSamples, subscribers = math.MaxInt, cursor, s.m.sampleSubscribers
	}
	frames := samples && !ndjson
	if frames {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// The 200 goes out now, not with the first record: a follower's
		// open returns while the feed is still empty, and a record that
		// fails in the first batch breaks a stream that opened instead of
		// failing its open.
		flusher.Flush()
	}
	s.m.feedSubscribers.Inc()
	subscribers.Inc()
	defer s.m.feedSubscribers.Dec()
	defer subscribers.Dec()
	enc := json.NewEncoder(w)
	err := f.Follow(r.Context(), fromEvents, fromSamples, func(evs []api.BuildEvent, pts []api.SamplePoint) error {
		// Only the followed stream has records: the other's cursor is past its end.
		var err error
		if frames {
			err = api.WriteSampleFrame(w, pts)
		}
		for i := 0; err == nil && i < len(evs); i++ {
			err = enc.Encode(evs[i])
		}
		for i := 0; err == nil && !frames && i < len(pts); i++ {
			err = enc.Encode(pts[i])
		}
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		return err
	})
	if err != nil && r.Context().Err() == nil {
		// A record that would not encode, or a write that failed, while
		// the client is still there: past the 200 header a broken
		// connection is the only way left to tell it the stream is short.
		panic(http.ErrAbortHandler)
	}
}
