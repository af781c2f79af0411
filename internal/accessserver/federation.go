package accessserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"batterylab/internal/accessserver/cluster"
	"batterylab/internal/accessserver/sched"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// Federation: several access servers pool their testbeds into one
// cluster. Each server keeps full authority over its own nodes, users
// and builds; what federation adds is
//
//   - membership: peers announce themselves over POST /api/v1/cluster/
//     peers (authenticated by a shared cluster token) and re-announce on
//     every heartbeat, carrying their current node census. Membership
//     persists in the WAL; liveness and the census are ephemeral.
//   - routing: the scheduler treats peer-advertised vantage points as
//     placement candidates. A build that places on one is relayed to the
//     peer as a plain v1 spec submission, and its events, samples and
//     summary stream back into the local feed — the client sees one
//     server, one build, wherever it ran.
//   - a single-cluster view: GET /api/v1/cluster renders every peer and
//     its census from a lock-free snapshot.
//
// The relay transport is injected (SetPeerRelay) rather than imported:
// internal/remote already speaks the v1 protocol but sits above this
// package in the import graph, so the daemon (or a test) wires the two
// together.

// PeerRelay submits spec to the peer at peerURL (authenticating with
// the cluster token), streams the remote build's events and samples
// into sink until the build settles, and returns its terminal status.
// A non-nil error means the relay itself broke — submission rejected,
// connection lost, context canceled — not that the experiment failed;
// experiment failure comes back as a terminal status with State
// "failure". Implementations must honor ctx promptly: the scheduler
// cancels it on abort and failover.
type PeerRelay func(ctx context.Context, peerURL, token string, spec api.ExperimentSpec, sink api.RelaySink) (*api.BuildStatus, error)

// SetPeerRelay installs the cross-server submit path. Until a relay is
// installed the scheduler never places builds on peer-advertised
// nodes.
func (s *Server) SetPeerRelay(r PeerRelay) {
	s.mu.Lock()
	s.peerRelay = r
	s.mu.Unlock()
}

// Cluster exposes the federation membership registry (read-only use:
// views, candidates, state probes).
func (s *Server) Cluster() *cluster.Registry { return s.cluster }

// ConfigureCluster sets the server's federation identity after
// construction — for daemons whose cluster flags arrive later than the
// platform facade builds the server. Empty arguments keep the
// constructed values. Boot-time only: call before StartCluster and
// before the server takes traffic.
func (s *Server) ConfigureCluster(name, advertiseURL, token string) {
	s.cluster.Configure(name, advertiseURL, token)
}

// StartCluster arms the federation announce loop: every
// HeartbeatEvery the server sweeps peer liveness, announces itself
// (with its node census) to every seed and every known peer, and adopts
// peers it learns from announce responses. seeds are upstream base URLs
// from the -peer flag; a server with none still announces to peers that
// joined it first, which is what makes one-directional join recipes
// work. No-op unless a cluster token is configured.
func (s *Server) StartCluster(seeds ...string) {
	if s.cluster.Token() == "" {
		return
	}
	s.mu.Lock()
	s.peerSeeds = append(s.peerSeeds, seeds...)
	if s.peerTicker == nil {
		s.peerTicker = simclock.NewTicker(s.clock, s.cfg.HeartbeatEvery,
			func(time.Time) { s.announceTick() })
	}
	s.mu.Unlock()
	s.announceTick()
}

// StopCluster disarms the announce loop (membership and routed builds
// are untouched; peers age into suspect/offline on their own clocks).
func (s *Server) StopCluster() {
	s.mu.Lock()
	t := s.peerTicker
	s.peerTicker = nil
	s.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

// announceTick is one beat of the federation loop: sweep peer liveness
// (reclaiming builds routed to peers that left the online state), then
// announce to every known URL and adopt newly learned peers.
func (s *Server) announceTick() {
	now := s.clock.Now()
	for _, name := range s.cluster.Sweep(now) {
		s.reclaimPeer(name)
	}
	s.mu.Lock()
	targets := append([]string(nil), s.peerSeeds...)
	s.mu.Unlock()
	for _, p := range s.cluster.Peers() {
		if p.URL != "" {
			targets = append(targets, p.URL)
		}
	}
	ann := api.PeerAnnounce{
		Name:  s.cluster.Self(),
		URL:   s.cluster.URL(),
		Nodes: s.peerCensus(now),
	}
	seen := map[string]bool{}
	for _, url := range targets {
		if url == "" || url == s.cluster.URL() || seen[url] {
			continue
		}
		seen[url] = true
		view, err := s.announceTo(url, ann)
		if err != nil {
			s.m.clusterAnnounceErrors.Inc()
			continue
		}
		s.m.clusterAnnounces.Inc()
		// Mesh learning: the responder and any peer it knows that we do
		// not join our membership (offline until they announce to us).
		s.adoptPeer(view.Self, view.URL)
		for _, p := range view.Peers {
			s.adoptPeer(p.Name, p.URL)
		}
	}
	// Fresh peer census (or a reclaim above) may unblock queued builds.
	s.dispatch()
}

// announceTo delivers one announce over plain HTTP and decodes the
// responder's cluster view. The timeout is wall-clock on purpose: peer
// servers are real network endpoints even in virtual-clock tests.
func (s *Server) announceTo(baseURL string, ann api.PeerAnnounce) (api.ClusterView, error) {
	var view api.ClusterView
	body, err := json.Marshal(ann)
	if err != nil {
		return view, err
	}
	req, err := http.NewRequest(http.MethodPost,
		strings.TrimSuffix(baseURL, "/")+"/api/v1/cluster/peers", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+s.cluster.Token())
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("announce to %s: HTTP %d", baseURL, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return view, err
	}
	return view, nil
}

// adoptPeer records a peer learned from an announce response:
// membership only (the peer is offline until its own announce arrives),
// persisted so it survives restarts.
func (s *Server) adoptPeer(name, url string) {
	if name == "" || url == "" || name == s.cluster.Self() {
		return
	}
	if _, ok := s.cluster.Peer(name); ok {
		return
	}
	s.cluster.Restore(name, url)
	s.mu.Lock()
	s.logStore(store.Record{T: store.TPeerJoined, Peer: &store.PeerRec{Name: name, URL: url}})
	s.mu.Unlock()
}

// peerCensus renders this server's node census for an announce, from
// the read plane's published snapshot — the announce loop never takes
// the scheduler mutex to describe the fleet.
func (s *Server) peerCensus(now time.Time) []api.PeerNode {
	var out []api.PeerNode
	for _, e := range s.reads.nodeList() {
		if e.Removed || !e.known() {
			continue
		}
		out = append(out, api.PeerNode{
			Name:    e.Name,
			Health:  s.censusHealth(e, now).String(),
			Devices: append([]string(nil), e.Devices...),
			Running: e.Running,
		})
	}
	return out
}

// handlerCluster mounts the federation routes (called from handlerV1):
//
//	POST   /api/v1/cluster/peers        peer announce/heartbeat (cluster token)
//	GET    /api/v1/cluster              cluster view (cluster token or user token)
//	DELETE /api/v1/cluster/peers/{name} evict a peer's membership (cluster
//	                                    token or node-admin user)
func (s *Server) handlerCluster(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/cluster/peers", func(w http.ResponseWriter, r *http.Request) {
		if !s.cluster.Authorize(api.BearerToken(r)) {
			api.WriteError(w, apiError(codeUnauthorized, "missing or invalid cluster token"))
			return
		}
		var ann api.PeerAnnounce
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBodyBytes)).Decode(&ann); err != nil {
			api.WriteError(w, apiError(codeBadRequest, "decoding peer announce: "+err.Error()))
			return
		}
		if ann.Name == "" {
			api.WriteError(w, apiError(codeBadRequest, "peer announce needs a name"))
			return
		}
		if ann.Name == s.cluster.Self() {
			api.WriteError(w, apiError(codeConflict,
				"peer announces as "+ann.Name+", this server's own cluster name"))
			return
		}
		now := s.clock.Now()
		if s.cluster.Announce(ann, now) {
			// First contact (or a moved URL): persist membership so the
			// peer set survives a restart.
			s.mu.Lock()
			s.logStore(store.Record{T: store.TPeerJoined, Peer: &store.PeerRec{Name: ann.Name, URL: ann.URL}})
			s.mu.Unlock()
		}
		writeJSON(w, http.StatusOK, s.cluster.View(now))
		// The announce carried a fresh census: queued builds may now
		// place remotely.
		s.dispatch()
	})
	mux.HandleFunc("GET /api/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		// Cluster-token callers (peers) and console users may both read
		// the view. Snapshot-served either way: the registry's COW view
		// plus per-peer state derivation — never the scheduler mutex.
		if !s.cluster.Authorize(api.BearerToken(r)) && s.auth(w, r, PermViewConsole) == nil {
			return
		}
		writeJSON(w, http.StatusOK, s.cluster.View(s.clock.Now()))
	})
	mux.HandleFunc("DELETE /api/v1/cluster/peers/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !s.cluster.Authorize(api.BearerToken(r)) && s.auth(w, r, PermManageNodes) == nil {
			return
		}
		name := r.PathValue("name")
		if !s.cluster.Remove(name) {
			api.WriteError(w, apiError(codeNotFound, "no peer "+name))
			return
		}
		s.reclaimPeer(name)
		s.mu.Lock()
		s.logStore(store.Record{T: store.TPeerLeft, Name: name})
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"removed": true})
	})
}

// relayRun synthesizes the RunFunc for a build claimed onto a peer's
// vantage point: submit the wire spec to the peer, stream its feed back
// into the local one, and settle the build from the remote terminal
// status. Relay breakage short of a terminal status goes through the
// peer-loss failover path, exactly like a lost local node. Callers hold
// s.mu (claimLocked).
func (s *Server) relayRun(b *Build, pl sched.Placement) RunFunc {
	relay := s.peerRelay
	peer, peerURL := pl.Peer, pl.PeerURL
	nodeName, device := pl.Node, pl.Device
	token := s.cluster.Token()
	return func(ctx *BuildContext, done func(error)) {
		attempt := ctx.attempt
		spec := *b.Spec
		spec.Node = nodeName
		spec.Device = device
		// Pin the relayed run: failover decisions stay with the home
		// server (one failover domain per build, not two). The CPU gate
		// travels — the peer owns that node's telemetry.
		spec.Constraints.AllowFallback = false
		spec.HomeServer = s.cluster.Self()
		cctx, cancel := context.WithCancel(context.Background())
		ctx.OnCancel(cancel)
		sink := &relaySink{b: b, attempt: attempt, node: nodeName}
		go func() {
			defer cancel()
			st, err := relay(cctx, peerURL, token, spec, sink)
			switch {
			case err == nil && st != nil:
				if st.Summary != nil {
					b.SetSummary(*st.Summary)
				}
				if st.State == StateSuccess.String() {
					done(nil)
					return
				}
				msg := st.Error
				if msg == "" {
					msg = st.State
				}
				done(fmt.Errorf("peer %s: remote build %d %s: %s", peer, st.ID, st.State, msg))
			case cctx.Err() != nil:
				// Locally canceled (abort or failover reclaimed the
				// attempt); settle — finish discards stale attempts.
				done(fmt.Errorf("relay to peer %s canceled: %w", peer, context.Cause(cctx)))
			case isPermanentRelayErr(err):
				// The peer answered and said no (bad spec, unknown node,
				// forbidden): retrying elsewhere cannot help.
				done(fmt.Errorf("peer %s rejected build: %w", peer, err))
			default:
				// Transport breakage or a transient refusal: treat like a
				// lost node and let the failover budget decide.
				reason := fmt.Sprintf("peer %q relay failed: %v", peer, err)
				if err == nil {
					reason = fmt.Sprintf("peer %q relay returned no status", peer)
				}
				s.peerLost(b, attempt, reason)
			}
		}()
	}
}

// isPermanentRelayErr reports whether a relay error is the peer's
// considered rejection (4xx) rather than unavailability: retrying or
// failing over cannot change the answer.
func isPermanentRelayErr(err error) bool {
	var ae *api.Error
	if errors.As(err, &ae) {
		st := ae.HTTPStatus()
		return st >= 400 && st < 500 && st != http.StatusTooManyRequests
	}
	return false
}

// relaySink feeds a routed build's remote events and samples into its
// home feed, rewritten to the local build id and dropped once the
// attempt is stale (a failed-over relay must not pollute the retry's
// feed).
type relaySink struct {
	b       *Build
	attempt int
	node    string
}

func (rs *relaySink) live() bool { return rs.b.live(rs.attempt) }

// Event implements api.RelaySink.
func (rs *relaySink) Event(e api.BuildEvent) {
	if !rs.live() {
		return
	}
	e.Build = rs.b.ID
	e.Seq = 0 // the home feed assigns its own cursor
	if e.Node == "" {
		e.Node = rs.node
	}
	rs.b.Feed().PostEvent(e)
}

// Sample implements api.RelaySink.
func (rs *relaySink) Sample(p api.SamplePoint) {
	if !rs.live() {
		return
	}
	rs.b.Feed().PostSample(p)
}

// Artifact implements api.RelaySink: a terminal artifact fetched from the
// executing peer lands in the home build's workspace, byte for byte — the
// body as the relay read it, not a copy.
func (rs *relaySink) Artifact(name string, data []byte) {
	if !rs.live() {
		return
	}
	rs.b.Workspace().Save(name, data)
}

// peerLost reclaims one routed build after its relay broke. A late
// relay error from an attempt already reclaimed is a no-op.
func (s *Server) peerLost(b *Build, attempt int, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !b.live(attempt) {
		return
	}
	s.m.clusterPeerLost++
	s.reclaimLocked(b, reason, true)
	s.exit.redrain = true
}

// reclaimPeer reclaims every running build routed via the named peer
// (the sweep found it left the online state, or an admin evicted it).
// Builds reclaim in id order so virtual-clock runs stay deterministic.
func (s *Server) reclaimPeer(peer string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lost []*Build
	for _, b := range s.builds {
		if b.State() == StateRunning && b.routedVia == peer {
			lost = append(lost, b)
		}
	}
	if len(lost) == 0 {
		return
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	s.m.clusterPeerLost += int64(len(lost))
	reason := fmt.Sprintf("peer %q left the cluster's online set", peer)
	for _, b := range lost {
		s.reclaimLocked(b, reason, true)
	}
	s.exit.redrain = true
}

// compileForPeer is the cross-server fallback behind SubmitSpec and
// SubmitCampaign: when the local backend cannot compile a spec because
// its node (or device) is unknown here, a peer advertising that vantage
// point takes the build instead. The compiled "pipeline" is a poison
// local body — if a local node of the same name ever materializes and
// wins placement, the build fails typed rather than running the wrong
// hardware — and the real execution path is claimLocked's relayRun.
func (s *Server) compileForPeer(spec api.ExperimentSpec, compileErr error) (Constraints, RunFunc, error) {
	if !errors.Is(compileErr, ErrNotFound) {
		return Constraints{}, nil, compileErr
	}
	s.mu.Lock()
	relay := s.peerRelay
	s.mu.Unlock()
	if relay == nil || s.cluster.Token() == "" {
		return Constraints{}, nil, compileErr
	}
	if err := spec.Validate(); err != nil {
		return Constraints{}, nil, compileErr
	}
	now := s.clock.Now()
	known := false
	for _, p := range s.cluster.Peers() {
		if !slices.ContainsFunc(p.Nodes, func(n api.PeerNode) bool { return advertises(n, spec.Node, spec.Device) }) {
			continue
		}
		known = true
		if st, _, _ := s.cluster.PeerState(p.Name, now); st == cluster.StateOnline {
			cons := Constraints{
				Node:          spec.Node,
				Device:        spec.Device,
				RequireLowCPU: spec.Constraints.RequireLowCPU,
				Fallback:      spec.Constraints.AllowFallback,
			}
			return cons, peerOnlyRun(spec.Node), nil
		}
	}
	if known {
		return Constraints{}, nil, peerUnavailablef(s.cfg.HeartbeatEvery,
			"%s: node %q lives on a peer that is not online right now", ErrPeerUnavailable.Error(), spec.Node)
	}
	return Constraints{}, nil, compileErr
}

// advertises reports whether census entry n of a peer offers node, and
// on it device ("" = any). An empty census device list means "not
// enumerated" (a peer only caches serials for monitored nodes), not "no
// devices": the peer's own scheduler is the authority and rejects an
// unknown serial with a typed 4xx the relay treats as permanent.
func advertises(n api.PeerNode, node, device string) bool {
	return n.Name == node && (device == "" || len(n.Devices) == 0 || slices.Contains(n.Devices, device))
}

// peerOnlyRun is the poison local pipeline of a peer-routed spec: it
// only runs if a local node steals the placement from the peer (a name
// collision), and then fails typed instead of measuring the wrong
// hardware.
func peerOnlyRun(node string) RunFunc {
	return func(ctx *BuildContext, done func(error)) {
		done(fmt.Errorf("%w: build targets peer-owned node %q and cannot run locally", ErrPeerUnavailable, node))
	}
}
