package accessserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

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

// handlerV1 mounts the v1 routes on mux.
func (s *Server) handlerV1(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		// Snapshot-served: one load of the published census is one
		// consistent view of the fleet, rows and membership — a
		// fleet-listing flood is lock-free with respect to dispatch. Health
		// is recomputed against the current clock because silence ages a
		// node without republishing.
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
				// vantage point must not stall the whole fleet listing on
				// a live list_devices round trip.
				devs, _ = listDevices(e.node)
			}
			infos = append(infos, api.NodeInfo{
				Name:    e.Name,
				Devices: devs,
				Health:  s.censusHealth(e, now).String(),
			})
		}
		writeJSON(w, http.StatusOK, infos)
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
		// read plane; only the drop counters are refreshed from the feed
		// plane. No scheduler lock on this path.
		ids, ok := s.reads.campaign(id)
		if !ok {
			if s.reads.campaignExpired(id) {
				writeError(w, fmt.Errorf("%w: campaign %d expired after its %s retention window", ErrExpired, id, s.cfg.Retention))
			} else {
				writeError(w, fmt.Errorf("%w: no campaign %d", ErrNotFound, id))
			}
			return
		}
		status := api.CampaignStatus{Campaign: id}
		for _, bid := range ids {
			st, ok := s.reads.buildStatus(bid)
			if !ok {
				// Tombstoned member: the record aged out of retention.
				status.Builds = append(status.Builds, api.BuildStatus{ID: bid, State: api.StateExpired})
				continue
			}
			st.DroppedEvents, st.DroppedSamples = s.hub.Feed(bid).Dropped()
			status.Builds = append(status.Builds, st)
		}
		writeJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}", func(w http.ResponseWriter, r *http.Request) {
		if s.auth(w, r, PermViewConsole) == nil {
			return
		}
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			api.WriteError(w, apiError(codeBadRequest, "build id must be an integer"))
			return
		}
		// The hot poll path: served from the read plane's published
		// snapshot, lock-free with respect to dispatch. The scheduler
		// republishes on every transition, in transition order, so polls
		// observe monotonic state. Drop counters move without a scheduler
		// transition (producer-side shedding), so they are refreshed from
		// the feed plane — also a leaf, never s.mu.
		if st, ok := s.reads.buildStatus(id); ok {
			st.DroppedEvents, st.DroppedSamples = s.hub.Feed(id).Dropped()
			writeJSON(w, http.StatusOK, st)
			return
		}
		if _, _, hst := s.hub.Resolve(id); hst == feedhub.StatusExpired {
			// The build existed but aged out: an explicit marker, not a
			// 404 — clients distinguish "expired" from "never existed".
			writeJSON(w, http.StatusOK, api.BuildStatus{ID: id, State: api.StateExpired})
			return
		}
		writeError(w, fmt.Errorf("%w: no build %d", ErrNotFound, id))
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
		f := s.feedFromPath(w, r)
		if f == nil {
			return
		}
		s.streamEvents(w, r, f)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/samples", func(w http.ResponseWriter, r *http.Request) {
		f := s.feedFromPath(w, r)
		if f == nil {
			return
		}
		s.streamSamples(w, r, f)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/analytics", func(w http.ResponseWriter, r *http.Request) {
		b := s.buildFromPath(w, r)
		if b == nil {
			return
		}
		s.serveAnalytics(w, r, b)
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/artifacts", func(w http.ResponseWriter, r *http.Request) {
		b := s.buildFromPath(w, r)
		if b == nil {
			return
		}
		writeJSON(w, http.StatusOK, b.Workspace().List())
	})
	mux.HandleFunc("GET /api/v1/builds/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		b := s.buildFromPath(w, r)
		if b == nil {
			return
		}
		data, err := b.Workspace().Load(r.PathValue("name"))
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

// buildStatus snapshots a build as its wire form: the durable record
// plus the live placement, read once under the build's lock.
func buildStatus(b *Build) api.BuildStatus {
	b.mu.Lock()
	r := b.BuildRec
	st := api.BuildStatus{
		ID:        r.ID,
		Job:       r.Job,
		Owner:     r.Owner,
		State:     r.State,
		Campaign:  r.Campaign,
		Canceled:  r.Canceled,
		Summary:   r.Summary,
		Node:      r.Node,
		Attempts:  r.Attempts,
		Error:     r.Err,
		NodeLost:  r.NodeLost,
		Recovered: b.recovered,
		FeedEpoch: r.FeedEpoch,
		// Federation provenance: routed_via names the peer executing the
		// build for its home server; home_server (carried on the relayed
		// spec) names the submitting server for the peer executing it.
		RoutedVia:      b.routedVia,
		PlacementScore: b.placementScore,
		QueuedAtNS:     r.QueuedAtNS,
		StartedAtNS:    r.StartedAtNS,
		FinishedAtNS:   r.FinishedAtNS,
	}
	if r.State == StateQueued.String() {
		st.PendingReason = b.pendingReason
	}
	b.mu.Unlock()
	if r.Spec != nil {
		st.HomeServer = r.Spec.HomeServer
	}
	// Feed-loss counters: a streaming client that sees a non-zero value
	// knows its replay is missing records instead of trusting a silently
	// truncated stream.
	st.DroppedEvents, st.DroppedSamples = b.feed.Dropped()
	return st
}

// feedFromPath resolves the {id} path segment to its feed through the
// hub — the data plane's only lookup; streaming subscriptions never
// touch scheduler state. Writes the error response itself (400 for a
// malformed id, 404 for unknown or expired builds). Authentication runs
// first.
func (s *Server) feedFromPath(w http.ResponseWriter, r *http.Request) *feedhub.Feed {
	if s.auth(w, r, PermViewConsole) == nil {
		return nil
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, apiError(codeBadRequest, "build id must be an integer"))
		return nil
	}
	f, _, st := s.hub.Resolve(id)
	switch st {
	case feedhub.StatusLive:
		return f
	case feedhub.StatusExpired:
		writeError(w, fmt.Errorf("%w: build %d expired after its %s retention window", ErrExpired, id, s.cfg.Retention))
	default:
		writeError(w, fmt.Errorf("%w: no build %d", ErrNotFound, id))
	}
	return nil
}

// streamEvents serves the NDJSON phase-event stream: replay from the
// ?from= cursor (default 0), then follow until the build finishes or
// the client goes away.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, f *feedhub.Feed) {
	cursor, _, e := api.StreamQuery(r, false)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.m.feedSubscribers.Inc()
	s.m.eventSubscribers.Inc()
	defer s.m.feedSubscribers.Dec()
	defer s.m.eventSubscribers.Dec()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, closed, changed := f.EventsSince(cursor)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return // client gone
			}
		}
		cursor += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			// One last snapshot covers the close/append race: EventsSince
			// reported closed only after any final events were visible.
			if more, _, _ := f.EventsSince(cursor); len(more) == 0 {
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// streamSamples serves the live power-sample stream: length-prefixed
// binary trace frames by default (the compact v2 codec of
// internal/trace, see api.WriteSampleFrame), or NDJSON SamplePoint
// lines with ?format=ndjson. Like the event stream it replays the
// build's buffered samples from the ?from= cursor (default 0, counting
// samples) and then follows — a client that lost its connection after
// n samples resumes with ?from=n. The feed it reads is bounded and
// drop-under-backpressure, so however slowly this consumer drains, the
// capture loop never blocks.
func (s *Server) streamSamples(w http.ResponseWriter, r *http.Request, f *feedhub.Feed) {
	cursor, ndjson, e := api.StreamQuery(r, true)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.WriteHeader(http.StatusOK)
	s.m.feedSubscribers.Inc()
	s.m.sampleSubscribers.Inc()
	defer s.m.feedSubscribers.Dec()
	defer s.m.sampleSubscribers.Dec()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		pts, closed, changed := f.SamplesSince(cursor)
		if len(pts) > 0 {
			if ndjson {
				for _, p := range pts {
					if err := enc.Encode(p); err != nil {
						return
					}
				}
			} else if err := api.WriteSampleFrame(w, pts); err != nil {
				return
			}
			cursor += len(pts)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if closed {
			if more, _, _ := f.SamplesSince(cursor); len(more) == 0 {
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
