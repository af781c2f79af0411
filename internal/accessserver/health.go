package accessserver

import (
	"fmt"
	"slices"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/simclock"
)

// Node lifecycle & fault tolerance. Vantage points are Raspberry Pis on
// home networks: they crash, hang and drop off SSH, and the paper's
// operational sibling ("Hot or not?") shows such failures are routine
// at fleet scale. The scheduler therefore tracks a health state per
// node, derived from heartbeats on the server clock:
//
//	online    recent heartbeat; dispatchable
//	suspect   one missed-beat window; no new dispatch, leases intact
//	offline   beats stopped; no dispatch, running leases break
//	draining  admin-requested; no new dispatch, running builds finish
//
// Health tracking is armed per node with MonitorNode (or the
// RegisterNode shorthand): a monitored node gets a heartbeat probe
// ticker on the server clock — deterministic under the virtual clock,
// since probes of in-process nodes (Pinger) run synchronously on the
// clock-dispatch goroutine. A node that is registered, unmonitored
// (plain Nodes.Register) has no ticker and no heartbeat to miss: it is
// online while it is registered, the pre-health behavior every
// single-node test relies on.
//
// There is one table of local vantage points, s.nodeRecs under s.mu: a
// node is its lifecycle record, registered while the record holds its
// handle. Registering and unregistering are transitions like every other
// node verb (node.go); a nil record means only that nobody has ever
// mentioned the name.

// Health is a node's lifecycle state.
type Health int

// Health states.
const (
	HealthOnline Health = iota
	HealthSuspect
	HealthOffline
	HealthDraining
)

func (h Health) String() string {
	switch h {
	case HealthOnline:
		return "online"
	case HealthSuspect:
		return "suspect"
	case HealthOffline:
		return "offline"
	default:
		return "draining"
	}
}

// Pinger is implemented by node handles that can answer a cheap
// liveness probe without a network round trip (LocalNode, FlakyNode).
// The heartbeat ticker probes Pinger nodes synchronously on the clock
// goroutine — the deterministic path — and everything else (sshx
// remotes) asynchronously, one probe in flight per node.
type Pinger interface {
	Ping() error
}

// NodeStatus is the introspection snapshot of one node's lifecycle
// state, served by GET /api/v1/nodes/{name}.
type NodeStatus struct {
	Name          string
	Health        Health
	Monitored     bool
	Draining      bool
	Removed       bool
	LastHeartbeat time.Time
	// Running counts builds currently leased to the node; Queued counts
	// queued builds whose preferred node it is.
	Running int
	Queued  int
	// Devices is the cached device list of a monitored node (captured
	// at MonitorNode time) — status surfaces serve it instead of a live
	// list_devices round trip, which could hang on a sick node.
	Devices []string
	// Reliability telemetry feeding score-based placement: Beats
	// counts recorded heartbeats, Flaps counts returns from a
	// suspect/offline silence, and Failovers counts builds the
	// scheduler reclaimed from the node.
	Beats     int64
	Flaps     int64
	Failovers int64
}

// nodeRec is the server's per-node lifecycle record: the handle, the
// durable part, the heartbeat clock, and the CPU probe cache that
// replaced the probe-while-holding-s.mu dispatch path. Guarded by s.mu.
type nodeRec struct {
	// node is the vantage point's handle while it is registered, nil
	// otherwise (a tombstone, a name only counted on, or a record whose
	// host has not re-registered since the restart).
	node Node

	// NodeRec is the node's durable state, kept as the record a snapshot
	// stores: monitor, drain and removal flags, the owner, the cached
	// device list and the hosting time owed. It changes only through
	// applyNode (persist.go), with the record that logs the change.
	//
	// Owner is the member who hosts this vantage point; while set, the
	// heartbeat stream accrues them §5 contribution credits for the
	// node's online time. OwedHostingNS accumulates attested online time
	// between ledger flushes, so the ledger gets one coalesced entry per
	// contributionFlushEvery of hosting instead of one per beat. Devices
	// is the fallback-placement cache, refreshed when the node is
	// (re)monitored — device attach/detach between registrations is rare
	// and a stale entry only costs one failed run.
	store.NodeRec

	lastBeat time.Time
	// version counts the changes to anything a placement pinned to this
	// node reads — the handle, the lifecycle flags, the last beat, the
	// locks under its name: touchNodeLocked bumps it, and a pinned verdict
	// stands only while it has not moved (see placeClass).
	version uint64
	// ticker probes the node every HeartbeatEvery: armed exactly while the
	// node is registered and monitored (armLocked, unregisterLocked).
	ticker  *simclock.Ticker
	pinging bool // async liveness probe in flight
	running int  // builds currently leased to this node

	// Reliability telemetry for score-based placement. beats counts
	// recorded heartbeats; flaps counts beats that ended a
	// suspect/offline silence (the node "came back"); failovers counts
	// builds the scheduler reclaimed from this node via a lease break.
	// lastFlap is when the node last returned from silence — placement
	// treats a node inside one offline window of its last flap as
	// "recently suspect" and ranks it below a steady peer.
	beats     int64
	flaps     int64
	failovers int64
	lastFlap  time.Time

	// CPU probe cache for RequireLowCPU dispatch: the scheduler never
	// blocks on Exec("status") under s.mu; it reads this cache and
	// launches at most one probe per node to refresh it. cpuProbeAt
	// bounds the in-flight latch: a probe stuck on a half-open
	// connection is written off after OfflineAfter and a fresh one may
	// launch (the late result, if any, just refreshes the cache).
	cpuPct     float64
	cpuAt      time.Time
	cpuOK      bool
	cpuProbing bool
	cpuProbeAt time.Time
}

// recLocked resolves (creating on first sight) a node's lifecycle
// record. A new record is a new census row, built when the section ends.
// Callers hold s.mu, and mark the node with touchNodeLocked when they
// change a field its row serves or a placement pinned to it reads.
func (s *Server) recLocked(name string) *nodeRec {
	rec, ok := s.nodeRecs[name]
	if !ok {
		rec = &nodeRec{NodeRec: store.NodeRec{Name: name}, lastBeat: s.clock.Now()}
		s.nodeRecs[name] = rec
		i, _ := slices.BinarySearch(s.nodeNames, name)
		s.nodeNames = slices.Insert(s.nodeNames, i, name)
	}
	return rec
}

// healthAt is the one health rule: a node's state at now from whether
// it is registered, its lifecycle flags and its last heartbeat.
// Offline outranks draining: a node that dies mid-drain must still break
// its build leases — draining only labels the alive states, where its
// meaning (no new dispatch, running builds finish) applies. Unmonitored
// nodes have no heartbeat to miss and are online while registered.
func (s *Server) healthAt(registered, removed, monitored, draining bool, lastBeat, now time.Time) Health {
	silence := now.Sub(lastBeat)
	switch {
	case !registered, removed, monitored && silence >= s.cfg.OfflineAfter:
		return HealthOffline
	case draining:
		return HealthDraining
	case !monitored, silence < s.cfg.SuspectAfter:
		return HealthOnline
	}
	return HealthSuspect
}

// healthLocked is healthAt for a lifecycle record. Callers hold s.mu.
func (s *Server) healthLocked(rec *nodeRec, now time.Time) Health {
	return s.healthAt(rec.node != nil, rec.Removed, rec.Monitored, rec.Draining, rec.lastBeat, now)
}

// forever is the horizon of a node whose health does not decay with time:
// later than any clock reading.
var forever = time.Unix(1<<62, 0)

// onlineUntilLocked is the instant rec, online now, stops being online
// with no event to announce it: once its silence reaches the suspect (or
// offline) threshold of healthAt if it is monitored, never otherwise.
// Callers hold s.mu.
func (s *Server) onlineUntilLocked(rec *nodeRec) time.Time {
	if !rec.Monitored {
		return forever
	}
	return rec.lastBeat.Add(min(s.cfg.SuspectAfter, s.cfg.OfflineAfter))
}

// substituteLocked reports whether rec may stand in for the node a
// fallback build is pinned to: another node, monitored (its cached device
// list is what substitution offers), and online right now — which a node
// is only while registered and not removed. Callers hold s.mu.
func (s *Server) substituteLocked(rec *nodeRec, pinned string, now time.Time) bool {
	return rec.Name != pinned && rec.Monitored && s.healthLocked(rec, now) == HealthOnline
}

// armLocked starts the heartbeat probe ticker of a registered, monitored
// node that has none. Callers hold s.mu.
func (s *Server) armLocked(rec *nodeRec) {
	if rec.ticker == nil && rec.node != nil && rec.Monitored {
		name, n := rec.Name, rec.node
		rec.ticker = simclock.NewTicker(s.clock, s.cfg.HeartbeatEvery, func(time.Time) {
			s.probeNode(name, n)
		})
	}
}

// MonitorNode arms heartbeat-driven health tracking for a registered
// node: an initial beat is recorded, the device list is cached for
// fallback placement, and a probe ticker starts on the server clock.
// Idempotent.
func (s *Server) MonitorNode(name string) error {
	n, err := s.reads.handle(name)
	if err != nil {
		return err
	}
	// Cache the device list outside s.mu: this is the one network round
	// trip of monitoring, paid at arm time, never at dispatch time.
	// Fallback placement depends on this cache, so a node that cannot
	// enumerate its devices is not silently armed with an empty one.
	devices, err := listDevices(n)
	if err != nil {
		return fmt.Errorf("monitoring %q: listing devices: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.registeredLocked(name)
	if err != nil {
		return err // unregistered during the round trip
	}
	rec.lastBeat = s.clock.Now()
	s.touchNodeLocked(name)
	if !rec.Monitored || !slices.Equal(rec.Devices, devices) {
		// Armed already: only the device list is new, and a drain stays. A
		// fresh arm ends any previous drain: re-monitoring a serviced node
		// must put it back in rotation, not leave it silently
		// undispatchable behind a stale flag.
		s.applyNodeLocked(rec, store.Record{T: store.TNodeMonitored, Node: &store.NodeRec{
			Name: name, Owner: rec.Owner, Monitored: true, Devices: devices,
			Draining: rec.Monitored && rec.Draining,
		}})
		s.armLocked(rec)
	}
	return nil
}

// applyNodeLocked is a node transition: it runs applyNode with the
// change's record on the node's durable state — the function replay
// runs on the same record — and logs it. Callers hold s.mu.
func (s *Server) applyNodeLocked(rec *nodeRec, change store.Record) {
	applyNode(&rec.NodeRec, &change)
	s.touchNodeLocked(rec.Name)
	s.logStore(change)
}

// SetNodeOwner records which member hosts a vantage point; their ledger
// accrues contribution credits for the node's heartbeat-attested online
// time ("" stops accrual). Hosting time accrued but not yet flushed is
// credited to the outgoing owner first — a transfer must not hand the
// predecessor's earned time to the successor. Programmatic deployment
// configuration, like MonitorNode.
func (s *Server) SetNodeOwner(name, owner string) {
	s.mu.Lock()
	rec := s.recLocked(name)
	if rec.Owner != owner {
		s.flushHostingLocked(rec)
	}
	s.applyNodeLocked(rec, store.Record{T: store.TNodeOwner, Name: name, Owner: owner})
	s.mu.Unlock()
}

// probeNode is one heartbeat probe of a node's handle (the ticker that
// calls it lives exactly as long as the registration). Pinger nodes
// answer synchronously (deterministic under the virtual clock); others
// are probed on a goroutine with at most one probe in flight, so a hung
// node can never stall the ticker — its beats simply stop and it ages
// into suspect and then offline.
func (s *Server) probeNode(name string, n Node) {
	if p, ok := n.(Pinger); ok {
		if p.Ping() == nil {
			s.Heartbeat(name)
		}
		return
	}
	s.mu.Lock()
	rec := s.recLocked(name)
	if rec.pinging {
		s.mu.Unlock()
		return
	}
	rec.pinging = true
	s.mu.Unlock()
	go func() {
		_, err := n.Exec("ping")
		s.mu.Lock()
		rec.pinging = false
		s.mu.Unlock()
		if err == nil {
			s.Heartbeat(name)
		}
	}()
}

// contributionFlushEvery is how much attested hosting time accumulates
// before it lands in the ledger as one coalesced contribution entry
// (15 minutes = 1 credit at ContributionRate). Per-beat entries would
// grow the ledger history, the WAL and every snapshot by thousands of
// rows per node-day for no audit value.
const contributionFlushEvery = 15 * time.Minute

// flushHostingLocked credits a node's accrued hosting time to its owner
// and zeroes the accrual, writing the single combined WAL record —
// zeroing and credit replay together or not at all, so a crash can
// neither double-pay nor drop one half. With no owner there is nothing
// to pay: the transfer or removal record that follows drops the accrual.
// Callers hold s.mu.
func (s *Server) flushHostingLocked(rec *nodeRec) {
	if rec.Owner == "" || rec.OwedHostingNS <= 0 {
		return
	}
	s.Ledger.record(rec.Owner, hostingEntry(rec.Name, time.Duration(rec.OwedHostingNS)))
	s.applyNodeLocked(rec, store.Record{T: store.TNodeHostingFlush, Name: rec.Name, Owner: rec.Owner, AtNS: rec.OwedHostingNS})
}

// Heartbeat records a liveness beat for a node on the server clock.
// A beat that brings the node back online re-kicks the queue so its
// pending builds dispatch immediately; steady-state beats of an
// already-online node change no placement decision and skip the scan.
// For owned nodes each beat also accrues the owner's §5 contribution
// time: the time since the previous beat, attested online time,
// capped at the offline window so a node that vanished for a week does
// not earn the gap when it returns. Accrued time is credited to the
// ledger in contributionFlushEvery lumps.
func (s *Server) Heartbeat(name string) {
	s.m.heartbeats.Inc()
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recLocked(name)
	wasOnline := s.healthLocked(rec, now) == HealthOnline
	rec.beats++
	// A beat that ends a silence window is a flap: the node was
	// suspect or offline (by missed beats — drain and removal are
	// admin states, not flaps) and came back. Placement holds that
	// against it — sharply while recent, lightly forever via the
	// lifetime count.
	if rec.Monitored && now.Sub(rec.lastBeat) >= s.cfg.SuspectAfter {
		rec.flaps++
		rec.lastFlap = now
	}
	if rec.Owner != "" && rec.Monitored {
		if d := now.Sub(rec.lastBeat); d > 0 {
			accrueHosting(&rec.NodeRec, min(d, s.cfg.OfflineAfter))
		}
		if rec.OwedHostingNS >= int64(contributionFlushEvery) {
			s.flushHostingLocked(rec)
		}
	}
	rec.lastBeat = now
	s.touchNodeLocked(name)
	if len(s.queue) > 0 && !wasOnline {
		s.exit.redrain = true
	}
}

// DrainNode stops new dispatch to a node while letting its running
// builds finish — the maintenance workflow before unplugging a Pi. The
// user needs PermManageNodes.
func (s *Server) DrainNode(user *User, name string) error {
	return s.setDraining(user, name, true)
}

// UndrainNode reopens a drained node for dispatch. The user needs
// PermManageNodes.
func (s *Server) UndrainNode(user *User, name string) error {
	return s.setDraining(user, name, false)
}

func (s *Server) setDraining(user *User, name string, draining bool) error {
	if !Allowed(user.Role, PermManageNodes) {
		return fmt.Errorf("%w: %s (%s) may not manage nodes", ErrForbidden, user.Name, user.Role)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.registeredLocked(name)
	if err != nil {
		return err
	}
	s.applyNodeLocked(rec, store.Record{T: store.TNodeDrain, Name: name, Draining: draining})
	if !draining {
		s.exit.redrain = true
	}
	return nil
}

// RemoveNode unregisters a node: new dispatch stops immediately,
// running builds finish (their lease is not broken — removal is an
// admin decision, not a failure), and queued builds that were pinned to
// it fail with ErrNodeLost unless fallback placement can move them.
// Removal ends the drain lifecycle too: a future registration of this
// name starts fresh instead of inheriting an undispatchable state. The
// user needs PermManageNodes.
func (s *Server) RemoveNode(user *User, name string) error {
	if !Allowed(user.Role, PermManageNodes) {
		return fmt.Errorf("%w: %s (%s) may not manage nodes", ErrForbidden, user.Name, user.Role)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.unregisterLocked(name)
	if err != nil {
		return err
	}
	// Final contribution flush: hosting time accrued below the lump
	// threshold still belongs to the owner.
	s.flushHostingLocked(rec)
	s.applyNodeLocked(rec, store.Record{T: store.TNodeRemoved, Name: name})
	s.failQueuedLocked(func(b *Build) error {
		if b.cons.Node == name && !b.cons.Fallback {
			return fmt.Errorf("%w: node %q removed while build %d was queued", ErrNodeLost, name, b.ID)
		}
		return nil
	})
	s.exit.redrain = true // fallback builds re-place onto survivors
	return nil
}

// NodeHealth reports a node's lifecycle snapshot. Never-seen nodes report
// offline with a zero LastHeartbeat.
func (s *Server) NodeHealth(name string) NodeStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.nodeRecs[name]
	if rec == nil {
		return NodeStatus{Name: name, Health: HealthOffline}
	}
	return s.nodeEntryLocked(rec, s.queuedOn[name]).NodeStatus
}

// nodeEntryLocked builds one node's census row — its lifecycle snapshot
// and its handle — given its queued-build count. Census publication calls
// it once per changed row. Callers hold s.mu.
func (s *Server) nodeEntryLocked(rec *nodeRec, queued int) *nodeCensusEntry {
	return &nodeCensusEntry{node: rec.node, NodeStatus: NodeStatus{
		Name:          rec.Name,
		Health:        s.healthLocked(rec, s.clock.Now()),
		Monitored:     rec.Monitored,
		Draining:      rec.Draining,
		Removed:       rec.Removed,
		LastHeartbeat: rec.lastBeat,
		Running:       rec.running,
		Queued:        queued,
		Devices:       append([]string(nil), rec.Devices...),
		Beats:         rec.beats,
		Flaps:         rec.flaps,
		Failovers:     rec.failovers,
	}}
}
