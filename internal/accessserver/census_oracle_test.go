package accessserver

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"batterylab/internal/accessserver/store"
)

// censusOracleLocked is the full census rebuild the server ran on every
// publish before publishes became incremental, kept as the test oracle:
// one scan of the whole queue for the per-node queued counts, every
// record of the node table in name order, every row rebuilt. It also
// returns the queued counts it derived. Callers hold s.mu.
func (s *Server) censusOracleLocked() ([]nodeCensusEntry, map[string]int) {
	queued := make(map[string]int)
	for _, b := range s.queue {
		queued[b.cons.Node]++
	}
	list := make([]nodeCensusEntry, 0, len(s.nodeRecs))
	for _, n := range slices.Sorted(maps.Keys(s.nodeRecs)) {
		list = append(list, *s.nodeEntryLocked(s.nodeRecs[n], queued[n]))
	}
	return list, queued
}

// PlacementDrift checks the placement classes against what they cache.
// Every queued build must be counted in the class of its constraints,
// nothing else may be, and a class with no build queued must be gone. And
// every verdict that claims to outlive the pass that computed it — a
// pinned one whose stamp and horizon still hold at now — must be what an
// uncached evaluation gives this instant: the same placement, lock, held
// bit and horizon. (Any other verdict claims nothing between passes: the
// next pass's first act is to void it.) It describes the first difference,
// nil when there is none.
func (s *Server) PlacementDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	queued := map[Constraints]int{}
	inQueue := map[*Build]bool{}
	for _, b := range s.queue {
		queued[b.cons]++
		inQueue[b] = true
		if b.class == nil || b.class != s.classes[b.cons] {
			return fmt.Errorf("queued build %d (%+v) is counted in class %p, the table holds %p", b.ID, b.cons, b.class, s.classes[b.cons])
		}
	}
	for id, b := range s.builds {
		if !inQueue[b] && b.class != nil {
			return fmt.Errorf("build %d is not queued and still counted in class %+v", id, b.class.cons)
		}
	}
	if len(s.classes) != len(queued) {
		return fmt.Errorf("%d placement classes for %d distinct constraints in the queue", len(s.classes), len(queued))
	}
	for cons, c := range s.classes {
		if c.cons != cons || c.queued != queued[cons] {
			return fmt.Errorf("class %+v (filed under %+v) counts %d queued builds, the queue holds %d", c.cons, cons, c.queued, queued[cons])
		}
		if c.rec == nil || !s.verdictValidLocked(c, now) {
			continue
		}
		pl, reason := s.placeLocked(cons, now)
		if !reflect.DeepEqual(pl, c.pl) || reason != c.reason {
			return fmt.Errorf("class %+v caches placement %+v (%q), placing it now gives %+v (%q)", cons, c.pl, c.reason, pl, reason)
		}
		if !pl.pinned || c.rec != s.nodeRecs[cons.Node] {
			return fmt.Errorf("class %+v hangs its verdict on node %q, its placement %+v is not pinned there", cons, c.rec.Name, pl)
		}
		key := cons.lockKey(pl)
		if held := s.lockHeldLocked(key); key != c.key || held != c.held || c.wait != "waiting for "+key.String() {
			return fmt.Errorf("class %+v caches lock %q held=%v (%q), the lock table says %q held=%v", cons, c.key, c.held, c.wait, key, held)
		}
		if until := s.onlineUntilLocked(c.rec); !until.Equal(c.until) {
			return fmt.Errorf("class %+v trusts node %q until %s, its record says %s", cons, c.rec.Name, c.until, until)
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
	return s.m.placementEvals, len(s.classes), s.placeEpoch
}

// CensusDrift compares what the server serves about its nodes with the
// oracle's full rebuild of the same instant and describes the first
// difference (nil when there is none). It checks the published census
// row for row — Health as the read routes derive it, since a published
// row's own Health field ages — the per-node queued counters, and
// NodeStatuses, which is served from the same counters.
func (s *Server) CensusDrift() error {
	statuses := s.NodeStatuses()
	s.mu.Lock()
	defer s.mu.Unlock()
	want, queued := s.censusOracleLocked()
	now := s.clock.Now()
	if names := slices.Sorted(maps.Keys(s.nodeRecs)); !slices.Equal(s.nodeNames, names) {
		return fmt.Errorf("the sorted name index lists %v, the node table holds %v", s.nodeNames, names)
	}

	delete(queued, "") // a build with no preferred node counts nowhere
	if !reflect.DeepEqual(s.queuedOn, queued) {
		return fmt.Errorf("queued counters %v, a queue scan counts %v", s.queuedOn, queued)
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
	if len(statuses) != len(want) {
		return fmt.Errorf("NodeStatuses lists %d nodes, the oracle %d", len(statuses), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual(statuses[i], w.NodeStatus) {
			return fmt.Errorf("NodeStatuses[%d] is %+v, the oracle builds %+v", i, statuses[i], w.NodeStatus)
		}
	}
	return nil
}

// QueueDrift checks the bookkeeping the drain pass relies on instead of
// rewalking the queue: builds sit in s.queue in queueSeq order, every
// queued build's dispatch-side reason shadow equals the reason it
// reports and the reason the read plane serves, and behind the first
// build labelled execWait every build up to the labelled-through
// watermark carries that label too (labelSaturatedLocked skips that run
// unread).
func (s *Server) QueueDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prev uint64
	inRun := false
	for i, b := range s.queue {
		if b.queueSeq <= prev {
			return fmt.Errorf("queue[%d] (build %d) has sequence %d after %d", i, b.ID, b.queueSeq, prev)
		}
		prev = b.queueSeq
		if got := b.PendingReason(); got != b.schedReason {
			return fmt.Errorf("build %d reports %q, the dispatch shadow holds %q", b.ID, got, b.schedReason)
		}
		if st, ok := s.reads.buildStatus(b.ID); !ok || st.PendingReason != b.schedReason {
			return fmt.Errorf("build %d is served as %q (published %v), the scheduler holds %q", b.ID, st.PendingReason, ok, b.schedReason)
		}
		if b.schedReason == execWait {
			inRun = true
		} else if inRun && b.queueSeq <= s.execLabelled {
			return fmt.Errorf("build %d (sequence %d, watermark %d) reads %q behind builds waiting for an executor",
				b.ID, b.queueSeq, s.execLabelled, b.schedReason)
		}
	}
	return nil
}

// LifecycleDrift recomputes from s.builds alone everything the four
// lifecycle transitions maintain incrementally — the lock table, the
// running counts, the queue's membership, the owner counts, the metrics
// gauges — and checks each build's own bookkeeping against its state. It
// describes the first difference (nil when there is none).
func (s *Server) LifecycleDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inQueue := map[*Build]bool{}
	for _, b := range s.queue {
		if inQueue[b] {
			return fmt.Errorf("build %d is in the queue twice", b.ID)
		}
		inQueue[b] = true
	}
	locks := map[string]map[string]int{}
	campRunning, nodeRunning := map[int]int{}, map[string]int{}
	ownerRunning, ownerActive := map[string]int{}, map[string]int{}
	var running, queued, waiting int
	for id, b := range s.builds {
		b.mu.Lock()
		state, node, peer := BuildState(b.BuildRec.State), b.Node, b.routedVia
		lease, retry, aging := b.leaseTimer != nil, b.retryTimer != nil, b.agingTimer != nil
		b.mu.Unlock()
		switch state {
		case StateRunning:
			running++
			ownerRunning[b.Owner]++
			ownerActive[b.Owner]++
			if s.campaigns[b.Campaign] != nil {
				campRunning[b.Campaign]++
			}
			if peer == "" {
				nodeRunning[node]++
			}
			// The recount builds the table the way claimLocked does, and
			// checks exclusivity against every key taken so far.
			k := b.held
			if k == (lockKey{}) {
				return fmt.Errorf("running build %d holds no lock", id)
			}
			under := locks[k.name]
			_, whole := under[""]
			_, same := under[k.device]
			if whole || same || k.device == "" && len(under) > 0 {
				return fmt.Errorf("build %d holds %q, which conflicts with what builds %v hold under %q", id, k, under, k.name)
			}
			if locks[k.name] == nil {
				locks[k.name] = map[string]int{}
			}
			locks[k.name][k.device] = id
			if inQueue[b] || retry || aging {
				return fmt.Errorf("running build %d: in queue %v, retry timer %v, aging timer %v", id, inQueue[b], retry, aging)
			}
		case StateQueued:
			queued++
			ownerActive[b.Owner]++
			// In the queue, or sitting out a failover backoff — exactly one.
			if inQueue[b] == retry {
				return fmt.Errorf("queued build %d: in queue %v, retry timer %v", id, inQueue[b], retry)
			}
			if inQueue[b] {
				waiting++
			}
			if b.held != (lockKey{}) || lease || aging != inQueue[b] {
				return fmt.Errorf("queued build %d: holds %q, lease timer %v, aging timer %v (in queue %v)", id, b.held, lease, aging, inQueue[b])
			}
		default:
			if !b.feed.Closed() || lease || retry || aging || b.held != (lockKey{}) || inQueue[b] {
				return fmt.Errorf("%s build %d: feed closed %v, timers %v/%v/%v, holds %q, in queue %v",
					state, id, b.feed.Closed(), lease, retry, aging, b.held, inQueue[b])
			}
		}
		if st, ok := s.reads.buildStatus(id); !ok || st.State != state.String() {
			return fmt.Errorf("build %d is %s, the read plane serves %q (published %v)", id, state, st.State, ok)
		}
		if b.camp != s.campaigns[b.Campaign] {
			return fmt.Errorf("build %d points at campaign record %p, campaign %d is %p", id, b.camp, b.Campaign, s.campaigns[b.Campaign])
		}
	}
	if waiting != len(s.queue) {
		return fmt.Errorf("the queue holds %d builds, %d of them known queued builds", len(s.queue), waiting)
	}
	if !reflect.DeepEqual(s.locks, locks) {
		return fmt.Errorf("lock table %v, running builds hold %v", s.locks, locks)
	}
	if s.running != running || s.m.queued != int64(queued) {
		return fmt.Errorf("running %d, queued gauge %d; the builds count %d running, %d queued",
			s.running, s.m.queued, running, queued)
	}
	if sum := s.m.queued + int64(s.running) + s.m.succeeded + s.m.failed + s.m.aborted; s.m.submitted != sum {
		return fmt.Errorf("%d builds submitted, the live and finished counters sum to %d", s.m.submitted, sum)
	}
	if !reflect.DeepEqual(s.ownerRunning, ownerRunning) || !reflect.DeepEqual(s.ownerActive, ownerActive) {
		return fmt.Errorf("owner counts running %v active %v, the builds count %v and %v",
			s.ownerRunning, s.ownerActive, ownerRunning, ownerActive)
	}
	for id, rec := range s.campaigns {
		if rec.running != campRunning[id] {
			return fmt.Errorf("campaign %d counts %d running, its builds %d", id, rec.running, campRunning[id])
		}
	}
	for name, rec := range s.nodeRecs {
		if rec.running != nodeRunning[name] {
			return fmt.Errorf("node %q counts %d running, the local builds on it %d", name, rec.running, nodeRunning[name])
		}
		delete(nodeRunning, name)
	}
	if len(nodeRunning) > 0 {
		return fmt.Errorf("builds run on nodes without a lifecycle record: %v", nodeRunning)
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
	s.Users.mu.RLock()
	s.Ledger.mu.Lock()
	s.storeMu.Lock()
	live := s.buildSnapshotLocked()
	var disk *store.Store
	var err error
	if s.store != nil {
		disk, err = store.Open(s.store.Dir())
	}
	s.storeMu.Unlock()
	s.Ledger.mu.Unlock()
	s.Users.mu.RUnlock()
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
