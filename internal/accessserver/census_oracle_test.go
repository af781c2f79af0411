package accessserver

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"

	"batterylab/internal/accessserver/sched"
	"batterylab/internal/accessserver/store"
)

// censusOracleLocked is the full census rebuild the server ran on every
// publish before publishes became incremental, kept as the test oracle:
// one scan of the whole queue for the per-node queued counts, every
// record of the node table in name order, every row rebuilt. Callers
// hold s.mu.
func (s *Server) censusOracleLocked() []nodeCensusEntry {
	queued := make(map[string]int)
	for _, b := range s.queuedBuilds() {
		queued[b.Class().Cons().Node]++
	}
	list := make([]nodeCensusEntry, 0, len(s.nodeRecs))
	for _, n := range slices.Sorted(maps.Keys(s.nodeRecs)) {
		list = append(list, *s.nodeEntryLocked(s.nodeRecs[n], queued[n]))
	}
	return list
}

// queuedBuilds is the dispatch queue as the builds in it, in order.
// Callers hold s.mu.
func (s *Server) queuedBuilds() []*Build {
	of := make(map[*sched.Entry]*Build, len(s.builds))
	for _, b := range s.builds {
		of[&b.Entry] = b
	}
	var queue []*Build
	for _, e := range s.sched.Queue() {
		queue = append(queue, of[e])
	}
	return queue
}

// PlacementDrift checks every verdict that claims to outlive the pass
// that computed it — a pinned one whose stamp and horizon still hold at
// now — against what an uncached evaluation gives this instant: the same
// placement, lock, held bit and horizon. (Any other verdict claims nothing
// between passes: the next pass's first act is to void it. Which builds
// a class counts is sched's own state, which its tests recount.) It
// describes the first difference, nil when there is none.
func (s *Server) PlacementDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	for cons, c := range s.sched.Classes() {
		if !s.sched.Standing(c, now) {
			continue
		}
		v := c.Verdict()
		pl, reason := s.placeLocked(cons, now)
		if !reflect.DeepEqual(pl, v.Placement) || reason != v.Reason {
			return fmt.Errorf("class %+v caches placement %+v (%q), placing it now gives %+v (%q)", cons, v.Placement, v.Reason, pl, reason)
		}
		if !pl.Pinned || pl.Node != cons.Node || s.nodeRecs[cons.Node] == nil {
			return fmt.Errorf("class %+v hangs its verdict on node %q, its placement %+v is not pinned there", cons, cons.Node, pl)
		}
		key := cons.Key(pl)
		if held := s.sched.Held(key); key != v.Key || held != v.Held || v.Wait != "waiting for "+key.String() {
			return fmt.Errorf("class %+v caches lock %q held=%v (%q), the lock table says %q held=%v", cons, v.Key, v.Held, v.Wait, key, held)
		}
		if until := s.onlineUntilLocked(s.nodeRecs[cons.Node]); !until.Equal(v.Until) {
			return fmt.Errorf("class %+v trusts node %q until %s, its record says %s", cons, cons.Node, v.Until, until)
		}
	}
	return nil
}

// PlacementCost reports how many placements the drain passes have computed
// so far and what bounds that: the classes alive now, and the placement
// epoch, which moves once per pass and once per claim. A class is placed
// at most once per epoch.
func (s *Server) PlacementCost() (evals int64, classes int, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, evals, epoch = s.sched.Cost()
	return evals, len(s.sched.Classes()), epoch
}

// CensusDrift compares what the server serves about its nodes with the
// oracle's full rebuild of the same instant and describes the first
// difference (nil when there is none). It checks the published census the
// nodes routes serve row for row — Health as they derive it, since a
// published row's own Health field ages — whose queued counts the oracle
// takes from a queue scan.
func (s *Server) CensusDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.censusOracleLocked()
	now := s.clock.Now()
	if names := slices.Sorted(maps.Keys(s.nodeRecs)); !slices.Equal(s.nodeNames, names) {
		return fmt.Errorf("the sorted name index lists %v, the node table holds %v", s.nodeNames, names)
	}
	got := s.reads.nodeList()
	if len(got) != len(want) {
		return fmt.Errorf("census serves %d rows, the oracle builds %d", len(got), len(want))
	}
	for i, w := range want {
		g := *got[i]
		if h := s.censusHealth(&g, now); h != w.Health {
			return fmt.Errorf("census row %q reads as %s, the oracle says %s", g.Name, h, w.Health)
		}
		g.Health = w.Health
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("census row %d is %+v, the oracle builds %+v", i, g, w)
		}
	}
	return nil
}

// servedNodes is the node census as the nodes routes serve it, sorted by
// name, each row's health derived at the current instant.
func (s *Server) servedNodes() []NodeStatus {
	now := s.clock.Now()
	rows := s.reads.nodeList()
	out := make([]NodeStatus, len(rows))
	for i, e := range rows {
		out[i] = e.NodeStatus
		out[i].Health = s.censusHealth(e, now)
	}
	return out
}

// QueueDrift checks what the server shows of each queued build's label,
// in the dispatch queue or sitting out a failover backoff: the read plane
// serves the reason the scheduler holds, the category stored with it is
// the one the reason's text names (pendingCategoryOf), and the
// blab_queue_pending counts are those categories counted, which sum to
// the queued total. (The queue's order and the labelled-through
// watermark are sched's own state, which its tests recount.)
func (s *Server) QueueDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var want [len(pendingCategories)]int
	for _, b := range s.builds {
		if b.State() != StateQueued {
			continue
		}
		prio, reason := b.Label()
		want[prio]++
		if st, ok := s.reads.buildStatus(b.ID); !ok || st.PendingReason != reason {
			return fmt.Errorf("build %d is served as %q (published %v), the scheduler holds %q", b.ID, st.PendingReason, ok, reason)
		}
		if got, want := pendingCategories[prio], pendingCategoryOf(reason); got != want {
			return fmt.Errorf("build %d waits %q, counted as %s, which the reason's text names %s", b.ID, reason, got, want)
		}
	}
	got, sum := s.pendingLocked(), 0
	for _, n := range got {
		sum += n
	}
	if got != want || int64(sum) != s.m.queued {
		return fmt.Errorf("blab_queue_pending counts %v (sum %d, %d queued), the queued builds' labels %v", got, sum, s.m.queued, want)
	}
	return nil
}

// pendingCategoryOf is how the pending-reason gauge once found a queued
// build's category: by matching the free-text reason. It is kept as the
// reference the stored category (Entry.Label) must agree with.
func pendingCategoryOf(reason string) string {
	switch {
	case reason == "":
		return "next_in_line"
	// "waiting for a free executor" must fold before the generic
	// "waiting for " lock_wait prefix below.
	case reason == sched.ExecWait:
		return "executor_wait"
	case strings.Contains(reason, "campaign concurrency"):
		return "campaign_cap"
	case strings.Contains(reason, "fair-share cap"):
		return "owner_cap"
	case strings.Contains(reason, "probing controller CPU"):
		return "cpu_probe"
	case strings.Contains(reason, "controller CPU"):
		return "cpu_gate"
	case strings.HasPrefix(reason, "waiting for node ") && strings.Contains(reason, "to register"),
		strings.Contains(reason, "was removed"),
		strings.Contains(reason, "node ") && strings.Contains(reason, " is "):
		return "node_unavailable"
	case strings.HasPrefix(reason, "waiting for "):
		return "lock_wait"
	case strings.Contains(reason, "; retry "):
		return "retry_backoff"
	default:
		return "other"
	}
}

// LifecycleDrift recomputes from s.builds alone what the lifecycle
// transitions maintain beside the scheduler core — the queue's
// membership, the totals and the owner counts of admission — and checks
// each build's own bookkeeping against its state: in the queue, the lock
// it holds, its watchdog's kind, the state the read plane serves. (The
// lock table and the running counts are sched's own state, which its
// tests recount.) It describes the first difference (nil when there is
// none).
func (s *Server) LifecycleDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inQueue := map[*Build]bool{}
	for _, b := range s.queuedBuilds() {
		if inQueue[b] {
			return fmt.Errorf("build %d is in the queue twice", b.ID)
		}
		inQueue[b] = true
	}
	ownerActive := map[string]int{}
	var running, queued, waiting int
	for id, b := range s.builds {
		b.mu.Lock()
		state, node, peer := BuildState(b.BuildRec.State), b.Node, b.routedVia
		b.mu.Unlock()
		// The watchdog's kind follows from the state: a running build's lease
		// (none on an unmonitored node), a queued build's aging in the queue
		// or its backoff out of it, nothing once settled.
		watching := b.watching
		if (watching == watchNone) != (b.watch == nil) {
			return fmt.Errorf("build %d: watchdog timer %v armed for kind %d", id, b.watch, watching)
		}
		switch state {
		case StateRunning:
			running++
			ownerActive[b.Owner]++
			if peer == "" && s.nodeRecs[node] == nil {
				return fmt.Errorf("build %d runs on node %q, which has no lifecycle record", id, node)
			}
			if b.Held() == (sched.Key{}) || inQueue[b] || watching != watchLease && watching != watchNone {
				return fmt.Errorf("running build %d: holds %q, in queue %v, watchdog armed for kind %d", id, b.Held(), inQueue[b], watching)
			}
		case StateQueued:
			queued++
			ownerActive[b.Owner]++
			// In the queue and aging, or sitting out a failover backoff.
			want := watchRetry
			if inQueue[b] {
				waiting++
				want = watchAging
			}
			if b.Held() != (sched.Key{}) || watching != want {
				return fmt.Errorf("queued build %d: holds %q, watchdog armed for kind %d, want %d (in queue %v)", id, b.Held(), watching, want, inQueue[b])
			}
		default:
			if !b.feed.Closed() || watching != watchNone || b.Held() != (sched.Key{}) || inQueue[b] {
				return fmt.Errorf("%s build %d: feed closed %v, watchdog armed for kind %d, holds %q, in queue %v",
					state, id, b.feed.Closed(), watching, b.Held(), inQueue[b])
			}
		}
		if st, ok := s.reads.buildStatus(id); !ok || st.State != state.String() {
			return fmt.Errorf("build %d is %s, the read plane serves %q (published %v)", id, state, st.State, ok)
		}
	}
	if waiting != len(s.sched.Queue()) {
		return fmt.Errorf("the queue holds %d builds, %d of them known queued builds", len(s.sched.Queue()), waiting)
	}
	if s.sched.Running() != running || s.m.queued != int64(queued) {
		return fmt.Errorf("running %d, queued gauge %d; the builds count %d running, %d queued",
			s.sched.Running(), s.m.queued, running, queued)
	}
	if sum := s.m.queued + int64(s.sched.Running()) + s.m.succeeded + s.m.failed + s.m.aborted; s.m.submitted != sum {
		return fmt.Errorf("%d builds submitted, the live and finished counters sum to %d", s.m.submitted, sum)
	}
	if !reflect.DeepEqual(s.ownerActive, ownerActive) {
		return fmt.Errorf("owner counts active %v, the builds count %v", s.ownerActive, ownerActive)
	}
	return nil
}

// DurableDrift checks that what the attached store holds is what the
// server holds: it reads the store's directory through a second Open — a
// whole log, as a restart would find it — folds snapshot and WAL with the
// functions recovery uses (and the live transitions run on the same
// records), and compares the result with the snapshot a compaction would
// write at this instant. It describes the first difference, nil when
// there is none or no store is attached.
//
// Everything a snapshot stores is compared, as JSON, except:
//
//   - NodeRec.OwedHostingNS: a beat of an owned node accrues hosting time
//     with no record (accrueHosting; a record per beat would swamp the
//     WAL), so between snapshots and flushes the disk may hold less — never
//     more — than the server.
//   - a NodeRec that is all zero but its name: nodes get a lifecycle
//     record the first time the scheduler counts something on them (a
//     heartbeat, a build, a CPU probe), which is durable state only once
//     a verb with a record touches it.
//   - Snapshot.Ledger: the in-memory history is bounded, the replayed one
//     is not; Balances, which is authoritative, is compared.
//   - Snapshot.V, WALGen, WALCut: stamped by the store when it writes.
func (s *Server) DurableDrift() error {
	s.mu.Lock()
	s.storeMu.Lock()
	live := s.buildSnapshotLocked()
	var disk *store.Store
	var err error
	if s.store != nil {
		disk, err = store.Open(s.store.Dir())
	}
	s.storeMu.Unlock()
	s.mu.Unlock()
	if disk == nil {
		return err
	}
	defer disk.Close()
	snap, recs := disk.Load()
	rs := newReplayState(snap)
	for i := range recs {
		rs.apply(&recs[i])
	}

	replayed := &store.Snapshot{NextBuild: rs.nextBuild, NextCampaign: rs.nextCampaign, Balances: rs.balances}
	for _, name := range slices.Sorted(maps.Keys(rs.users)) {
		replayed.Users = append(replayed.Users, rs.users[name])
	}
	for _, name := range slices.Sorted(maps.Keys(rs.jobs)) {
		replayed.Jobs = append(replayed.Jobs, rs.jobs[name])
	}
	for _, id := range slices.Sorted(maps.Keys(rs.builds)) {
		replayed.Builds = append(replayed.Builds, *rs.builds[id])
	}
	for _, id := range slices.Sorted(maps.Keys(rs.campaigns)) {
		replayed.Campaigns = append(replayed.Campaigns, rs.campaigns[id])
	}
	for _, name := range slices.Sorted(maps.Keys(rs.peers)) {
		replayed.Peers = append(replayed.Peers, rs.peers[name])
	}
	for _, n := range live.Nodes {
		d := rs.nodes[n.Name]
		if d == nil {
			d = &store.NodeRec{Name: n.Name}
		}
		if d.OwedHostingNS > n.OwedHostingNS {
			return fmt.Errorf("node %q: the store owes %d ns of hosting, the server %d", n.Name, d.OwedHostingNS, n.OwedHostingNS)
		}
		cp := *d
		cp.OwedHostingNS = n.OwedHostingNS
		replayed.Nodes = append(replayed.Nodes, cp)
		delete(rs.nodes, n.Name)
	}
	if len(rs.nodes) > 0 {
		return fmt.Errorf("the store holds nodes %v the server does not", slices.Sorted(maps.Keys(rs.nodes)))
	}
	live.Ledger = nil

	if err := cmp.Or(
		diffRecs("users", live.Users, replayed.Users), diffRecs("jobs", live.Jobs, replayed.Jobs),
		diffRecs("nodes", live.Nodes, replayed.Nodes), diffRecs("builds", live.Builds, replayed.Builds),
		diffRecs("campaigns", live.Campaigns, replayed.Campaigns), diffRecs("peers", live.Peers, replayed.Peers),
	); err != nil {
		return err
	}
	// Whatever is left: the id counters and the balances.
	if l, d := mustJSON(live), mustJSON(replayed); l != d {
		return fmt.Errorf("the server would snapshot %s, its store replays to %s", l, d)
	}
	return nil
}

// diffRecs describes the first position at which two record lists differ.
func diffRecs[T any](what string, live, disk []T) error {
	for i := 0; i < max(len(live), len(disk)); i++ {
		l, d := "nothing", "nothing"
		if i < len(live) {
			l = mustJSON(live[i])
		}
		if i < len(disk) {
			d = mustJSON(disk[i])
		}
		if l != d {
			return fmt.Errorf("%s[%d]: the server holds %s, its store replays to %s", what, i, l, d)
		}
	}
	return nil
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}
