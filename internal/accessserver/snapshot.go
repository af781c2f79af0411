package accessserver

import (
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"batterylab/internal/api"
)

// nodeCensusEntry is one row of the published node table: a node's
// lifecycle snapshot and the handle it is registered under (nil while it
// is not). The row carries membership, so readers ask nothing else: the
// /nodes listing filters on the handle and runs an unmonitored node's
// live list_devices through it. A row is immutable once published and is
// replaced only when something it serves changes, so its Health is as of
// then: readers derive the current health with censusHealth.
type nodeCensusEntry struct {
	NodeStatus
	node Node
}

// known reports whether the row describes a vantage point rather than a
// bare name the scheduler counted something on (a stray beat, a plain
// registration since dropped): registered, or remembered as monitored or
// removed.
func (e *nodeCensusEntry) known() bool {
	return e.node != nil || e.Monitored || e.Removed
}

// readPlane is the server's snapshot-served read side: published views
// of build status, the node census and campaign membership, republished
// by the scheduler at every state transition while it already holds
// s.mu. The hot GET routes (build status, node list, campaign status)
// load these views with atomic pointer reads and never acquire the
// scheduler lock, so status-poll floods are lock-free with respect to
// dispatch.
//
// Every publish costs what changed, not what exists: a build or campaign
// is one cell of a chunked index (see chunkindex.go), and the census is
// a sorted slice of pointers to immutable rows, of which a publish
// rebuilds only the rows the critical section marked (touchNodeLocked).
//
// Consistency: publishers run inside the scheduler's critical sections,
// so snapshots are installed in transition order — a client that
// observed a build running can never later read it queued
// (monotonic reads).
type readPlane struct {
	// builds maps build id -> served status, republished in place on
	// every transition and evicted at retention.
	builds chunkIndex[api.BuildStatus]
	// buildPublishes counts publishBuild calls. Publishers hold s.mu, so
	// it is a plain int; tests read it to pin "one transition, one
	// publish".
	buildPublishes int
	// nodes is the published node census, sorted by name. The slice and
	// its rows are immutable once stored: one load is one consistent
	// view of the whole fleet.
	nodes atomic.Pointer[[]*nodeCensusEntry]
	// camps maps campaign id -> member build ids (fixed at submission).
	camps chunkIndex[[]int]
	// highCamp is the highest campaign id ever issued, for the
	// expired-vs-unknown distinction after eviction.
	highCamp atomic.Int64
}

func newReadPlane() *readPlane {
	rp := &readPlane{}
	rp.nodes.Store(new([]*nodeCensusEntry))
	return rp
}

// publishBuild installs st as build st.ID's served status.
func (rp *readPlane) publishBuild(st api.BuildStatus) {
	rp.buildPublishes++
	rp.builds.put(st.ID, &st)
}

// removeBuild evicts a build's served status (retention expiry).
func (rp *readPlane) removeBuild(id int) {
	rp.builds.remove(id)
}

// buildStatus returns the served status for id, if published.
func (rp *readPlane) buildStatus(id int) (api.BuildStatus, bool) {
	if st := rp.builds.get(id); st != nil {
		return *st, true
	}
	return api.BuildStatus{}, false
}

// publishCampaign records a campaign's member build ids (fixed at
// submission) and raises the campaign high-water mark.
func (rp *readPlane) publishCampaign(id int, builds []int) {
	members := append([]int(nil), builds...)
	rp.camps.put(id, &members)
	if int64(id) > rp.highCamp.Load() {
		rp.highCamp.Store(int64(id))
	}
}

// removeCampaign evicts a campaign (its last member expired).
func (rp *readPlane) removeCampaign(id int) {
	rp.camps.remove(id)
}

// campaign returns a campaign's member ids, if published.
func (rp *readPlane) campaign(id int) ([]int, bool) {
	if members := rp.camps.get(id); members != nil {
		return *members, true
	}
	return nil, false
}

// campaignExpired reports whether id was issued but has been evicted.
func (rp *readPlane) campaignExpired(id int) bool {
	return id >= 1 && int64(id) <= rp.highCamp.Load()
}

// nodeList returns the served node census, sorted by name. Callers must
// not modify the slice or its rows.
func (rp *readPlane) nodeList() []*nodeCensusEntry {
	return *rp.nodes.Load()
}

// node returns one census row by name. Callers must not modify it.
func (rp *readPlane) node(name string) (*nodeCensusEntry, bool) {
	rows := rp.nodeList()
	if i, ok := censusFind(rows, name); ok {
		return rows[i], true
	}
	return nil, false
}

// handle resolves a registered node's handle.
func (rp *readPlane) handle(name string) (Node, error) {
	if e, ok := rp.node(name); ok && e.node != nil {
		return e.node, nil
	}
	return nil, errNoNode(name)
}

// censusFind locates name in a census sorted by name.
func censusFind(rows []*nodeCensusEntry, name string) (int, bool) {
	return slices.BinarySearchFunc(rows, name, func(e *nodeCensusEntry, name string) int {
		return strings.Compare(e.Name, name)
	})
}

// censusHealth recomputes a census entry's health at now. Health is
// time-derived — a silent node ages into suspect and then offline
// without any scheduler transition republishing the census — so the
// read path derives it fresh from the row's published heartbeat, flags
// and membership instead of trusting the value computed at publish time.
func (s *Server) censusHealth(e *nodeCensusEntry, now time.Time) Health {
	return s.healthAt(e.node != nil, e.Removed, e.Monitored, e.Draining, e.LastHeartbeat, now)
}

// publishBuildLocked republishes b's served wire-form status after a
// state transition. Callers hold s.mu but never b.mu (the snapshot
// reads b's state through its own accessors).
func (s *Server) publishBuildLocked(b *Build) {
	s.reads.publishBuild(buildStatus(b))
}

// touchNodeLocked marks a node as changed, for its two caches. Leaving
// the critical section rebuilds its census row: everything that moves a
// field the row serves (heartbeat, monitor/drain/remove, running and
// queued counts) calls it. And every placement verdict pinned to the node
// falls: whoever changes what the pinned path of placeLocked reads — the
// handle, the lifecycle flags, the last beat, the locks under the node's
// name — bumps the node's version by calling it (see placeClass). Callers
// hold s.mu.
func (s *Server) touchNodeLocked(name string) {
	if rec := s.nodeRecs[name]; rec != nil {
		rec.version++ // before the early-out: a repeated name is a second change
	}
	if n := len(s.censusDirty); n > 0 && s.censusDirty[n-1] == name {
		return
	}
	s.censusDirty = append(s.censusDirty, name)
}

// publishCensusLocked republishes the node census — the one node table,
// s.nodeRecs, as its readers see it. Its one caller is leaveSection, as
// s.mu drops: it rebuilds the rows the section marked and swaps in one
// copied pointer slice, so a reader still sees the whole fleet at one
// instant. With nothing marked and no new record it does nothing. Records
// are never deleted, so the sorted name index is stale exactly when there
// are more records than rows; the rebuild carries every old row over and
// builds the new ones.
func (s *Server) publishCensusLocked() {
	old := s.reads.nodeList()
	if len(old) == len(s.nodeRecs) && len(s.censusDirty) == 0 {
		return // before rows, which escapes to the heap where it is declared
	}
	var rows []*nodeCensusEntry
	if len(old) == len(s.nodeRecs) {
		rows = slices.Clone(old)
	} else {
		rows = make([]*nodeCensusEntry, 0, len(s.nodeRecs))
		for _, name := range s.nodeNames {
			if i, ok := censusFind(old, name); ok {
				rows = append(rows, old[i])
			} else {
				rows = append(rows, s.nodeEntryLocked(s.nodeRecs[name], s.queuedOn[name]))
			}
		}
	}
	for _, name := range s.censusDirty {
		// A marked name without a row is a node nobody has a record for
		// yet (builds may queue for it); its row is built when it appears.
		if i, ok := censusFind(rows, name); ok {
			rows[i] = s.nodeEntryLocked(s.nodeRecs[name], s.queuedOn[name])
		}
	}
	s.censusDirty = s.censusDirty[:0]
	s.reads.nodes.Store(&rows)
}
