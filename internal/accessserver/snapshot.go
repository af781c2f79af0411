package accessserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"batterylab/internal/accessserver/feedhub"
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
// of build status, the node census and campaign membership. Its one
// writer is leaveSection, which republishes what the critical section
// marked (touchBuildLocked, sched.Touch, sectionExit.camps) after the
// section's WAL write and before s.mu drops. Every GET route loads these
// views with atomic pointer reads and never acquires the scheduler lock,
// so read floods are lock-free with respect to dispatch.
//
// It is also the one build index: a build id resolves to its published
// cell (status, feed and workspace — everything a read route serves), or,
// with no cell, to expired when it is at or below the published
// high-water mark and to unknown when not.
//
// Every publish costs what changed, not what exists: a build or campaign
// is one cell of a chunked index (see chunkindex.go), and the census is
// a sorted slice of pointers to immutable rows, of which a publish
// rebuilds only the rows the critical section marked. A build status is
// encoded once per published version, at its first read rather than at
// publish, which runs under s.mu and often replaces a version nobody
// read; reads serve those bytes with the live drop counters spliced in
// (see servedStatus).
//
// Consistency: what is served is written — a status is published only
// once the records behind it are in the log — and sections publish in
// the order they run, so a client that observed a build running can never
// later read it queued (monotonic reads).
type readPlane struct {
	// builds maps build id -> served status, replaced by a new version
	// when a section touched it and evicted at retention.
	builds chunkIndex[servedStatus]
	// highBuild is the highest build id ever issued, for the
	// expired-vs-unknown distinction after eviction.
	highBuild atomic.Int64
	// buildPublishes counts publishBuild calls. Publishers hold s.mu, so
	// it is a plain int; tests read it to pin "one touched build, one
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

// servedStatus is one published version of a build's status, with the
// build's feed and workspace: the cell every read route resolves a build
// id to. It holds no *Build, so no route reads a field ahead of the log.
// The status never changes once published: a republish installs a new
// servedStatus, so an encoding cached here can never be served for a
// later version.
type servedStatus struct {
	st  api.BuildStatus
	enc atomic.Pointer[statusEncoding]
	// feed and ws are the build's own, fixed at its construction: nil
	// only in the expired marker.
	feed *feedhub.Feed
	ws   *Workspace
}

// dropped reads the build's live drop counters, which producer-side
// shedding moves without a republish; the expired marker has none.
func (ss *servedStatus) dropped() (events, samples int64) {
	if ss.feed == nil {
		return 0, 0
	}
	return ss.feed.Dropped()
}

// statusEncoding is a status's response body with both drop counters
// zero — what json.Marshal writes, then the '\n' writeJSON adds — and
// the offset in it where dropped_events and dropped_samples belong.
type statusEncoding struct {
	body  []byte
	drops int
}

// dropsMarker is what json.Marshal writes for DroppedEvents = 1:
// encoding marshals with that value and cuts the marker out, which
// leaves the zero-drop body and the offset in one pass.
const dropsMarker = `,"dropped_events":1`

// encoding returns ss's wire form, encoding it at the first call. Two
// readers racing to fill the cache encode the same bytes, so the last
// store may win.
func (ss *servedStatus) encoding() (*statusEncoding, error) {
	if e := ss.enc.Load(); e != nil {
		return e, nil
	}
	st := ss.st
	st.DroppedEvents, st.DroppedSamples = 1, 0
	data, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	// Only flat fields (strings, numbers, bools) follow the drop counters,
	// and a string never holds an unescaped quote, so the last match is
	// the field itself.
	at := bytes.LastIndex(data, []byte(dropsMarker))
	if at < 0 {
		return nil, errors.New("encoding build status: no dropped_events field")
	}
	body := make([]byte, 0, len(data)-len(dropsMarker)+1)
	body = append(body, data[:at]...)
	body = append(body, data[at+len(dropsMarker):]...)
	e := &statusEncoding{body: append(body, '\n'), drops: at}
	ss.enc.Store(e)
	return e, nil
}

// appendTo appends the body with the drop counters spliced in where
// json.Marshal puts them (each omitted when zero), less the trailing
// newline.
func (e *statusEncoding) appendTo(dst []byte, events, samples int64) []byte {
	dst = append(dst, e.body[:e.drops]...)
	if events != 0 {
		dst = strconv.AppendInt(append(dst, `,"dropped_events":`...), events, 10)
	}
	if samples != 0 {
		dst = strconv.AppendInt(append(dst, `,"dropped_samples":`...), samples, 10)
	}
	return append(dst, e.body[e.drops:len(e.body)-1]...)
}

// publishBuild installs st as build st.ID's served status, beside the
// build's feed and workspace: a new version, encoded when it is first
// read.
func (rp *readPlane) publishBuild(st api.BuildStatus, feed *feedhub.Feed, ws *Workspace) {
	rp.buildPublishes++
	rp.builds.put(st.ID, &servedStatus{st: st, feed: feed, ws: ws})
}

// build resolves a build id: its published cell, or nil and whether the
// id was issued and has expired rather than never issued.
func (rp *readPlane) build(id int) (ss *servedStatus, expired bool) {
	if ss = rp.builds.get(id); ss != nil {
		return ss, false
	}
	return nil, id >= 1 && int64(id) <= rp.highBuild.Load()
}

// removeBuild evicts a build's served status (retention expiry).
func (rp *readPlane) removeBuild(id int) {
	rp.builds.remove(id)
}

// publishCampaign records a campaign's member build ids (fixed at
// submission).
func (rp *readPlane) publishCampaign(id int, builds []int) {
	members := append([]int(nil), builds...)
	rp.camps.put(id, &members)
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

// touchBuildLocked marks b as changed: leaving the critical section
// republishes its served status, once however many transitions the
// section ran on it. Callers hold s.mu but never b.mu (the exit reads b's
// state through its own lock).
func (s *Server) touchBuildLocked(b *Build) {
	if !b.touched {
		b.touched = true
		s.exit.builds = append(s.exit.builds, b)
	}
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
	touched := s.sched.Touched()
	if len(old) == len(s.nodeRecs) && len(touched) == 0 {
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
				rows = append(rows, s.nodeEntryLocked(s.nodeRecs[name], s.sched.Node(name).Queued))
			}
		}
	}
	for _, name := range touched {
		// A marked name without a row is a node nobody has a record for
		// yet (builds may queue for it); its row is built when it appears.
		if i, ok := censusFind(rows, name); ok {
			rows[i] = s.nodeEntryLocked(s.nodeRecs[name], s.sched.Node(name).Queued)
		}
	}
	s.reads.nodes.Store(&rows)
}
