package accessserver

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"maps"
	"slices"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// Persistence glue: the server's state mutations append to an optional
// write-ahead log (internal/accessserver/store), and AttachStore
// replays snapshot+WAL to reconstruct the in-memory maps after a
// restart. The policy decisions live here; the store package only
// frames records durably.
//
// A record is applied, live or replayed, by one function. Builds and
// nodes — the entities with patch records — keep their durable fields as
// their store record (Build.BuildRec, nodeRec.NodeRec), and what a record
// does to that record is written once, in applyBuild and applyNode below:
//
//   - A live transition builds the record it logs, applies it to the
//     entity with that function, and logs it (lifecycle.go for builds,
//     health.go's applyNodeLocked for nodes).
//   - Replay applies the same record, with the same function, to its
//     entry for the entity (replayState.apply).
//   - A snapshot copies the records out; AttachStore copies them back in.
//     Nothing in between assigns a durable field, so a field added to a
//     store struct is snapshotted, replayed and recovered once its apply
//     case sets it.
//   - Two changes are not a record's: a recovered build's FeedEpoch and
//     backfilled QueuedAtNS (AttachStore's copy-in, made durable by the
//     snapshot it ends with) and hosting time accruing between flushes
//     (accrueHosting). The DurableDrift test oracle replays the store
//     after every event of the scheduler scripts and holds the result
//     against the server, with exactly those exceptions.
//
// Users, jobs, campaigns, the ledger and peers are whole-record upserts
// and deletes with nothing to mirror.
//
// What recovery then makes of the replayed state:
//
//   - Users come back with their original tokens; ledger balances and
//     histories replay exactly.
//   - Jobs come back whole — spec, revision, approval — and runnable.
//     Every non-terminal build recompiles its own wire spec through the
//     SpecBackend.
//   - Node lifecycle state (drain flags, removal tombstones, owner,
//     cached devices) survives; the live Node handles do not, so the
//     hosting process re-registers its nodes at startup, before
//     AttachStore. Registration is a transition on the node's record, so
//     what that boot established (a fresh device list, monitoring, the
//     handle itself) is on the record AttachStore merges the stored one
//     into, and wins over it. A stored record whose host has not come
//     back reads offline and is probed again once it registers.
//   - Builds that were queued at the crash re-enqueue in ID order.
//   - Builds that were running at the crash go through reclaimLocked,
//     the body a broken node lease runs: a failover event on the feed,
//     a retry if the budget allows, a typed ErrNodeLost failure
//     otherwise — so an interrupted campaign completes after restart.
//   - Finished builds come back with byte-identical wire status
//     (modulo the explicit `recovered` marker); their feed replay and
//     workspace artifacts are gone, which is the same contract as a
//     retention expiry, only earlier.
//
// Call order matters: install the SpecBackend and register the nodes
// first, then AttachStore, then create any bootstrap users (restore
// replaces same-named users created earlier, which is what a daemon
// that unconditionally creates "admin" on boot wants).

// RecoveryStats summarizes what AttachStore reconstructed.
type RecoveryStats struct {
	Users    int
	Jobs     int
	Nodes    int
	Builds   int // total build records recovered
	Requeued int // queued at crash, back in the queue
	Resumed  int // running at crash, routed through failover requeue
	Failed   int // running at crash, retry budget spent (or recompile failed)
	Ledger   int // ledger entries replayed
}

// walDo runs op against the attached store (a no-op without one).
// storeMu is a leaf mutex: taken under s.mu, never b.mu.
//
// A failed op (full disk, I/O error) latches storeFailed: further ops
// are suppressed — a WAL with a silent gap replays later records onto
// earlier state, which is worse than no WAL — and the operator gets one
// loud log line. The next successful compaction writes a complete
// snapshot and lifts the latch.
func (s *Server) walDo(what string, op func(*store.Store) error) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil || s.storeFailed {
		return
	}
	if err := op(s.store); err != nil {
		s.storeFailed = true
		s.m.appendErrors++
		log.Printf("accessserver: WAL %s failed, durability suspended until a snapshot succeeds: %v", what, err)
		s.slogger().LogAttrs(context.Background(), slog.LevelError, "wal "+what+" failed, durability suspended",
			slog.String("error", err.Error()))
	}
}

// sectionExit is what one critical section marked for its exit. The
// transitions decide and mark; leaveSection delivers, in its fixed order,
// and hands back what must wait for the lock to drop. Guarded by s.mu;
// each list keeps its backing array from section to section.
type sectionExit struct {
	wal     []store.Record   // logStore
	events  []api.BuildEvent // reclaimLocked's failover events
	builds  []*Build         // touchBuildLocked, each build once
	camps   []int            // campaigns added or evicted
	closing []int            // settled builds, whose feeds close
	expired []int            // evicted builds, whose status and feed go
	census  []string         // touchNodeLocked
	cancels []func()         // cancel hooks: abandoned attempts', an aborted run's
	redrain bool             // a drain pass follows the section
}

// logStore logs one record of the critical section the caller is in:
// s.mu guards the buffer, and leaving the section writes it.
func (s *Server) logStore(rec store.Record) {
	s.exit.wal = append(s.exit.wal, rec)
}

// leaveSection is what s.mu.Unlock runs before the lock drops, so no
// transition can forget it, and the one place a section's effects happen.
// Write, then show: (1) what the section logged becomes one WAL write in
// program order (a partial write is a torn tail the next replay
// truncates), still under s.mu, so compaction finds no record waiting;
// then (2) its failover events are posted, (3) the statuses of the builds
// it touched and the campaign cells it added or evicted are republished,
// (4) the feeds of the builds it settled close and those it evicted go,
// and (5) its census rows and the two polled counts are republished. No
// status or clean end of stream a reader sees is ahead of the log, and
// sections show in the order they run (monotonic reads). A section that
// marked nothing allocates nothing here. What must wait for the lock to
// drop is handed back.
func (s *Server) leaveSection() (cancels []func(), redrain bool) {
	x := &s.exit
	if len(x.wal) > 0 {
		s.walAppend(x.wal...)
		clear(x.wal) // pin no spec or summary until the next section
		x.wal = x.wal[:0]
	}
	for _, ev := range x.events {
		s.hub.Feed(ev.Build).PostEvent(ev)
	}
	clear(x.events)
	x.events = x.events[:0]
	for _, b := range x.builds {
		b.touched = false
		s.reads.publishBuild(buildStatus(b))
	}
	clear(x.builds)
	x.builds = x.builds[:0]
	for _, id := range x.camps {
		if rec := s.campaigns[id]; rec != nil {
			s.reads.publishCampaign(id, rec.builds)
		} else {
			s.reads.removeCampaign(id)
		}
	}
	x.camps = x.camps[:0]
	if high := int64(s.nextCampaign - 1); high > s.reads.highCamp.Load() {
		s.reads.highCamp.Store(high)
	}
	for _, id := range x.closing {
		s.hub.Close(id)
	}
	x.closing = x.closing[:0]
	for _, id := range x.expired {
		s.reads.removeBuild(id)
		s.hub.Remove(id)
	}
	x.expired = x.expired[:0]
	s.publishCensusLocked()
	s.runningNow.Store(int64(s.running))
	s.queuedNow.Store(s.m.queued)
	cancels, redrain = x.cancels, x.redrain
	x.cancels, x.redrain = nil, false
	return cancels, redrain
}

// walAppend writes a section's records to the WAL in one timed write.
func (s *Server) walAppend(recs ...store.Record) {
	s.walDo("append", func(st *store.Store) error {
		start := time.Now()
		err := st.AppendBatch(recs)
		s.m.walAppendLatency.Observe(time.Since(start).Seconds())
		return err
	})
}

// jobRecord is a job's persisted form (creation, edits and approvals
// all upsert the same record).
func jobRecord(j *Job) store.JobRec {
	spec := j.Spec
	return store.JobRec{Name: j.Name, Owner: j.Owner, Spec: &spec, Approved: j.Approved, Revision: j.Revision}
}

// logJob records a job's current state. Callers hold s.mu.
func (s *Server) logJob(j *Job) {
	rec := jobRecord(j)
	s.logStore(store.Record{T: store.TJobPut, Job: &rec})
}

// replayState folds snapshot+WAL into the latest value of every
// record.
type replayState struct {
	users        map[string]store.UserRec
	jobs         map[string]store.JobRec
	nodes        map[string]*store.NodeRec
	builds       map[int]*store.BuildRec
	campaigns    map[int]store.CampaignRec
	ledger       map[string][]store.LedgerRec
	balances     map[string]float64
	peers        map[string]store.PeerRec
	nextBuild    int
	nextCampaign int
}

func newReplayState(snap *store.Snapshot) *replayState {
	rs := &replayState{
		users:        map[string]store.UserRec{},
		jobs:         map[string]store.JobRec{},
		nodes:        map[string]*store.NodeRec{},
		builds:       map[int]*store.BuildRec{},
		campaigns:    map[int]store.CampaignRec{},
		ledger:       map[string][]store.LedgerRec{},
		balances:     map[string]float64{},
		peers:        map[string]store.PeerRec{},
		nextBuild:    1,
		nextCampaign: 1,
	}
	if snap == nil {
		return rs
	}
	for _, u := range snap.Users {
		rs.users[u.Name] = u
	}
	for _, p := range snap.Peers {
		rs.peers[p.Name] = p
	}
	for _, j := range snap.Jobs {
		rs.jobs[j.Name] = j
	}
	for i := range snap.Nodes {
		rs.nodes[snap.Nodes[i].Name] = &snap.Nodes[i]
	}
	for i := range snap.Builds {
		rs.builds[snap.Builds[i].ID] = &snap.Builds[i]
	}
	for _, c := range snap.Campaigns {
		rs.campaigns[c.ID] = c
	}
	for user, entries := range snap.Ledger {
		rs.ledger[user] = append([]store.LedgerRec(nil), entries...)
		// Fallback for snapshots predating the Balances field: the sum
		// of the (then-unbounded) history is the balance.
		total := 0.0
		for _, e := range entries {
			total += e.Delta
		}
		rs.balances[user] = total
	}
	for user, bal := range snap.Balances {
		rs.balances[user] = bal
	}
	if snap.NextBuild > rs.nextBuild {
		rs.nextBuild = snap.NextBuild
	}
	if snap.NextCampaign > rs.nextCampaign {
		rs.nextCampaign = snap.NextCampaign
	}
	return rs
}

// node resolves (creating on first sight, like recLocked) the record a
// node patch applies to.
func (rs *replayState) node(name string) *store.NodeRec {
	n := rs.nodes[name]
	if n == nil {
		n = &store.NodeRec{Name: name}
		rs.nodes[name] = n
	}
	return n
}

// apply folds one WAL record in. Build and node records go through the
// functions the live transitions run; the rest are plain upserts and
// deletes.
func (rs *replayState) apply(rec *store.Record) {
	switch rec.T {
	case store.TUserAdded:
		if rec.User != nil {
			rs.users[rec.User.Name] = *rec.User
		}
	case store.TUserRemoved:
		delete(rs.users, rec.Name)
	case store.TJobPut:
		if rec.Job != nil {
			rs.jobs[rec.Job.Name] = *rec.Job
		}
	case store.TJobDeleted:
		delete(rs.jobs, rec.Name)
	case store.TNodeMonitored:
		if rec.Node != nil {
			applyNode(rs.node(rec.Node.Name), rec)
		}
	case store.TNodeOwner, store.TNodeDrain, store.TNodeRemoved:
		applyNode(rs.node(rec.Name), rec)
	case store.TNodeHostingFlush:
		// The combined record: zero the node's accrual AND apply the
		// owner's contribution credit — together or not at all.
		applyNode(rs.node(rec.Name), rec)
		e := hostingEntry(rec.Name, time.Duration(rec.AtNS))
		rs.ledger[rec.Owner] = append(rs.ledger[rec.Owner], store.LedgerRec{
			User: rec.Owner, Delta: e.Delta, Reason: e.Reason,
		})
		rs.balances[rec.Owner] += e.Delta
	case store.TBuildQueued:
		if rec.Build != nil {
			b := new(store.BuildRec)
			applyBuild(b, rec)
			rs.builds[b.ID] = b
			if b.ID >= rs.nextBuild {
				rs.nextBuild = b.ID + 1
			}
		}
	case store.TBuildStarted, store.TBuildCancelWant, store.TBuildFailover, store.TBuildFinished:
		if b := rs.builds[rec.BuildID]; b != nil {
			applyBuild(b, rec)
		}
	case store.TBuildExpired:
		delete(rs.builds, rec.BuildID)
	case store.TCampaign:
		if rec.Campaign != nil {
			rs.campaigns[rec.Campaign.ID] = *rec.Campaign
			if rec.Campaign.ID >= rs.nextCampaign {
				rs.nextCampaign = rec.Campaign.ID + 1
			}
		}
	case store.TCampaignExpired:
		delete(rs.campaigns, rec.CampaignID)
	case store.TLedger:
		if rec.Entry != nil {
			rs.ledger[rec.Entry.User] = append(rs.ledger[rec.Entry.User], *rec.Entry)
			rs.balances[rec.Entry.User] += rec.Entry.Delta
		}
	case store.TPeerJoined:
		if rec.Peer != nil {
			rs.peers[rec.Peer.Name] = *rec.Peer
		}
	case store.TPeerLeft:
		delete(rs.peers, rec.Name)
	}
}

// applyBuild is what a build record does to a build's durable state: the
// live transition that logs rec and the replay that reads it back both
// run this, on Build.BuildRec and on the replay's entry. TBuildQueued
// carries the whole record; the others patch it.
func applyBuild(b *store.BuildRec, rec *store.Record) {
	switch rec.T {
	case store.TBuildQueued:
		*b = *rec.Build
	case store.TBuildStarted:
		b.State = StateRunning.String()
		b.Node = rec.NodeName
		b.Attempts = rec.Attempt
		b.StartedAtNS = rec.AtNS
	case store.TBuildCancelWant:
		b.Canceled = true
	case store.TBuildFailover:
		b.State = StateQueued.String()
		b.Retries = rec.Retries
	case store.TBuildFinished:
		b.State = rec.State
		b.Err = rec.Err
		b.Canceled = rec.Canceled
		b.NodeLost = rec.NodeLost
		// Zero means "not carried" in records older than these fields.
		if rec.NodeName != "" {
			b.Node = rec.NodeName
		}
		if rec.Attempt > 0 {
			b.Attempts = rec.Attempt
		}
		if rec.Retries > 0 {
			b.Retries = rec.Retries
		}
		b.Summary = rec.Summary
		b.FinishedAtNS = rec.AtNS
	}
}

// applyNode is applyBuild for a node's lifecycle record (nodeRec.NodeRec
// live, the replay's entry otherwise). n.Name is set already.
func applyNode(n *store.NodeRec, rec *store.Record) {
	switch rec.T {
	case store.TNodeMonitored:
		// The record is the node's lifecycle state from here on — armed or
		// not, out of any drain or removal — except what it does not
		// carry: an owner set before (re-)monitoring sticks, and so does
		// the hosting time accrued so far.
		owner, owed := n.Owner, n.OwedHostingNS
		*n = *rec.Node
		if n.Owner == "" {
			n.Owner = owner
		}
		n.OwedHostingNS = owed
	case store.TNodeOwner:
		// Only a genuine transfer resets accrual (its flush landed as the
		// preceding TNodeHostingFlush record); a same-owner re-set — a
		// daemon's -owner flag on every boot — keeps the sub-threshold
		// remainder.
		if n.Owner != rec.Owner {
			n.OwedHostingNS = 0
		}
		n.Owner = rec.Owner
	case store.TNodeDrain:
		n.Draining = rec.Draining
	case store.TNodeRemoved:
		n.Removed = true
		n.Monitored = false
		n.Draining = false
		n.OwedHostingNS = 0 // flushed at removal
	case store.TNodeHostingFlush:
		n.OwedHostingNS = 0
	}
}

// accrueHosting is the one durable change no record carries: each beat of
// an owned node adds attested online time, which reaches disk with the
// next snapshot and is logged only when it is flushed to the ledger (a
// record per beat would grow the WAL by thousands of rows per node-day).
// A crash loses at most the accrual since the last snapshot.
func accrueHosting(n *store.NodeRec, d time.Duration) {
	n.OwedHostingNS += int64(d)
}

// AttachStore replays the store's snapshot+WAL into the server and
// turns on write-ahead logging for every mutation from here on. It
// must run before the server takes traffic: after the SpecBackend is
// installed and the deployment's nodes are registered (so queued spec
// builds can recompile and dispatch), and at most once.
func (s *Server) AttachStore(st *store.Store) (RecoveryStats, error) {
	// Installed first: the transitions recovery itself causes are logged
	// like any section's and leave with it (a second crash replays them).
	s.storeMu.Lock()
	if s.store != nil {
		s.storeMu.Unlock()
		return RecoveryStats{}, fmt.Errorf("accessserver: a store is already attached")
	}
	s.store = st
	s.storeMu.Unlock()

	snap, recs := st.Load()
	rs := newReplayState(snap)
	for i := range recs {
		rs.apply(&recs[i])
	}

	var stats RecoveryStats
	defer s.holdClock()()
	now := s.clock.Now()

	// Cluster membership: known peers come back by name and URL but
	// start offline (zero last-beat) — the next announce exchange proves
	// them alive again, and until then the scheduler will not route
	// builds their way.
	for _, name := range slices.Sorted(maps.Keys(rs.peers)) {
		s.cluster.Restore(name, rs.peers[name].URL)
	}

	s.mu.Lock()
	backend := s.specs

	// Users and ledger first: independent of the rest.
	for _, u := range rs.users {
		s.Users.restore(u.Name, Role(u.Role), u.Token)
		stats.Users++
	}
	for _, user := range slices.Sorted(maps.Keys(rs.ledger)) {
		entries := make([]LedgerEntry, len(rs.ledger[user]))
		for i, e := range rs.ledger[user] {
			entries[i] = LedgerEntry{Delta: e.Delta, Reason: e.Reason}
		}
		s.Ledger.restore(user, rs.balances[user], entries)
		stats.Ledger += len(entries)
	}

	// Jobs. A job the daemon already re-created this boot wins over its
	// record. A record from before jobs stored their spec has none: the
	// job keeps its name, owner and approval, and its empty spec fails to
	// compile until someone edits it.
	for name, jr := range rs.jobs {
		if _, exists := s.jobs[name]; exists {
			continue
		}
		j := &Job{Name: jr.Name, Owner: jr.Owner, Approved: jr.Approved, Revision: jr.Revision}
		if jr.Spec != nil {
			j.Spec = *jr.Spec
		}
		s.jobs[name] = j
		stats.Jobs++
	}

	// Node lifecycle: drain flags, tombstones, owner and the cached
	// device list survive; monitoring re-arms on the server clock with
	// a fresh beat (the node proves itself alive again from here).
	// Sorted order matters: the virtual clock breaks equal-deadline
	// ties by registration sequence, so ticker arming must not follow
	// map iteration order or recovery would stop being deterministic.
	for _, name := range slices.Sorted(maps.Keys(rs.nodes)) {
		nr := rs.nodes[name]
		rec := s.recLocked(name)
		// Touched: the merge rewrites flags and the beat, which the node's
		// census row serves and any verdict pinned to it has read.
		s.touchNodeLocked(name)
		// The record comes in whole. What this boot already established is
		// on the record it merges into, and stands: a node registered and
		// armed before the attach keeps its fresh device list and its
		// monitoring, and being registered ends a removal like the live
		// path does.
		boot := rec.NodeRec
		tombstoned := nr.Removed && rec.node == nil
		rec.NodeRec = *nr
		rec.Removed = boot.Removed || tombstoned
		rec.Monitored = !tombstoned && (boot.Monitored || nr.Monitored && !nr.Removed)
		if len(boot.Devices) > 0 {
			rec.Devices = boot.Devices
		}
		rec.lastBeat = now
		s.armLocked(rec)
		stats.Nodes++
	}

	// Campaigns before builds, so member builds can find their rec.
	for id, cr := range rs.campaigns {
		s.campaigns[id] = &campaignRec{
			builds:        append([]int(nil), cr.Builds...),
			maxConcurrent: cr.MaxConcurrent,
		}
	}

	if rs.nextBuild > s.nextID {
		s.nextID = rs.nextBuild
	}
	if rs.nextCampaign > s.nextCampaign {
		s.nextCampaign = rs.nextCampaign
	}

	// Builds in ID order: submission order, deterministically.
	for _, id := range slices.Sorted(maps.Keys(rs.builds)) {
		br := rs.builds[id]
		state := BuildState(br.State)
		live := state == StateQueued || state == StateRunning
		if !live && !state.Terminal() {
			continue // a state this version does not know
		}
		// The record comes in whole. Every recovery hands the build a fresh
		// feed, so the epoch moves: clients' resume cursors (and
		// feed-derived aggregates) from before the restart are void —
		// including across a second restart, which bumps it again.
		b := &Build{BuildRec: *br, recovered: true, reported: br.Summary, camp: s.campaigns[br.Campaign], workspace: NewWorkspace()}
		b.BuildRec.FeedEpoch++
		b.feed = s.hub.Create(b.ID, b.BuildRec.FeedEpoch)
		if b.QueuedAtNS == 0 {
			b.QueuedAtNS = now.UnixNano() // logged before records carried it
		}
		s.builds[b.ID] = b
		stats.Builds++
		s.m.submitted++

		if !live {
			// Already terminal on disk: restored as it was, not settled
			// again.
			switch state {
			case StateSuccess:
				s.m.succeeded++
			case StateFailure:
				s.m.failed++
			default:
				s.m.aborted++
			}
			if br.Err != "" {
				var sentinels []error
				if br.NodeLost {
					sentinels = append(sentinels, ErrNodeLost)
				}
				b.err = &recoveredErr{msg: br.Err, sentinels: sentinels}
			}
			s.endLocked(b)
			continue
		}

		// Live again, as a queued build holding nothing (the crash released
		// whatever a running one held), and counted like one: admission
		// fairness must survive a restart, or an owner could double their
		// quota by crashing the server. The transitions recovery causes
		// from here are the live ones.
		b.BuildRec.State = StateQueued.String()
		s.m.queued++
		s.ownerActive[b.Owner]++
		if b.Canceled {
			// A cancel was requested before the crash but the build never
			// settled: rerunning (and charging) a canceled experiment would
			// be worse than the lost teardown.
			s.settleLocked(b, nil)
			continue
		}
		// The build must run again, so recompile its spec through the
		// backend. (A build of a closure job, logged before jobs stored
		// their spec, has none to compile.)
		var compileErr error
		switch {
		case b.Spec == nil:
			compileErr = fmt.Errorf("%w: build %d was logged without a spec", ErrInvalid, b.ID)
		case backend == nil:
			compileErr = fmt.Errorf("%w: no spec backend installed at recovery", ErrInvalid)
		default:
			b.cons, b.run, compileErr = backend.Compile(*b.Spec)
		}
		switch {
		case compileErr != nil:
			s.settleLocked(b, fmt.Errorf("build %d unrecoverable after restart: %w", b.ID, compileErr))
			stats.Failed++
		case state == StateRunning:
			// The crash broke the lease: the attempt's work is gone.
			s.reclaimLocked(b, fmt.Sprintf("access server restarted while attempt %d ran on %q", b.BuildRec.Attempts, b.Node), false)
			if b.State() == StateQueued {
				stats.Resumed++
			} else {
				stats.Failed++
			}
		default:
			s.queuePushLocked(b)
			s.touchBuildLocked(b)
			stats.Requeued++
		}
	}

	// Prime the feed-plane high-water mark and mark every campaign, so the
	// exit shows the recovered world before the lock drops: ids that expired
	// before the restart must resolve as expired (not unknown), and the
	// snapshot routes must serve the recovered state from the first request.
	// Every build was touched above, by the branch or the transition that
	// decided its state. No drain pass follows the exit: it runs last, below.
	s.hub.SetHighWater(s.nextID - 1)
	for id := range s.campaigns {
		s.exit.camps = append(s.exit.camps, id)
	}
	s.mu.Unlock()

	// Leaving the section wrote recovery's records; a failed write latched,
	// so a caller that continues anyway appends nothing past the gap.
	s.storeMu.Lock()
	failed := s.storeFailed
	s.storeMu.Unlock()
	if failed {
		return stats, fmt.Errorf("accessserver: flushing recovery records failed, durability suspended (see the log)")
	}
	// Go live: arm periodic compaction.
	s.snapTicker = simclock.NewTicker(s.clock, s.cfg.SnapshotEvery, func(time.Time) {
		s.maybeCompact()
	})
	// Group commit: appends land in the page cache immediately and are
	// fsynced on this cadence, bounding what a power loss (not a mere
	// process crash) can take to the last WALSyncEvery window instead
	// of the last snapshot.
	s.syncTicker = simclock.NewTicker(s.clock, s.cfg.WALSyncEvery, func(time.Time) {
		s.syncStore()
	})

	// An immediate snapshot makes state that predates the attach —
	// bootstrap users, jobs and node registrations a daemon sets up
	// before calling AttachStore — durable right away instead of at the
	// first periodic compaction.
	if err := s.CompactStore(); err != nil {
		return stats, err
	}
	s.dispatch()
	return stats, nil
}

// syncStore flushes the WAL to stable storage (the group-commit
// ticker); an already-synced file is left alone.
func (s *Server) syncStore() {
	s.walDo("fsync", func(st *store.Store) error {
		if !st.Dirty() {
			return nil
		}
		start := time.Now()
		err := st.Sync()
		s.m.fsyncLatency.Observe(time.Since(start).Seconds())
		return err
	})
}

// maybeCompact snapshots and truncates the WAL if it has grown since
// the last compaction (or an append failed and durability needs the
// snapshot to re-establish a consistent base).
func (s *Server) maybeCompact() {
	s.storeMu.Lock()
	grown := s.store != nil && (s.store.Appended() > 0 || s.storeFailed)
	s.storeMu.Unlock()
	if grown {
		if err := s.CompactStore(); err != nil {
			log.Printf("accessserver: periodic snapshot failed: %v", err)
		}
	}
}

// CompactStore writes a snapshot of the current state and truncates
// the WAL. The snapshot ticker calls it periodically; daemons may also
// call it at shutdown for a minimal next replay.
//
// Correctness needs a clean cut: no record may fall between the state
// the snapshot captures and the truncation. The snapshot is therefore
// built, and the WAL cut offset taken, under s.mu — the lock every WAL
// write is made under, by the exit of the section that logged it — so
// every record before the cut describes state the snapshot contains. The
// expensive part — marshaling and fsyncing the snapshot file — then runs
// with s.mu released: records appended meanwhile land past the cut, and
// FinishCompact preserves them when it resets the log. The scheduler
// never waits on a disk flush.
func (s *Server) CompactStore() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()
	defer func() { s.m.snapshotLatency.Observe(time.Since(start).Seconds()) }()

	s.mu.Lock()
	snap := s.buildSnapshotLocked()
	s.storeMu.Lock()
	st := s.store
	wasFailed := s.storeFailed
	var c *store.Compaction
	var err error
	if st != nil {
		c, err = st.BeginCompact(snap)
		if err == nil {
			// The snapshot just captured every mutation to date, so the
			// WAL gap a failed append left behind is healed the moment
			// this snapshot lands. Lift the latch HERE, inside the
			// writers' lock order: mutations from now on append past the
			// cut and survive FinishCompact — deferring the lift to
			// after the unlocked fsync would silently drop them.
			s.storeFailed = false
		}
	}
	s.storeMu.Unlock()
	s.mu.Unlock()

	if st == nil {
		return fmt.Errorf("accessserver: no store attached")
	}
	if err != nil {
		// BeginCompact failed before the latch was lifted: nothing
		// appended, nothing to undo.
		return err
	}
	if err := st.WriteSnapshot(c); err != nil {
		// The snapshot never became durable. If the latch had been
		// lifted on its strength, the records appended meanwhile sit
		// after the old WAL gap — roll them back and re-arm the latch
		// (their state lives in memory and in the next snapshot
		// attempt). A previously-healthy WAL stays authoritative as is.
		if wasFailed {
			s.storeMu.Lock()
			s.storeFailed = true
			if rbErr := st.Rollback(c); rbErr != nil {
				log.Printf("accessserver: rolling back failed compaction: %v", rbErr)
			}
			s.storeMu.Unlock()
			log.Printf("accessserver: snapshot compaction failed, durability suspended until one succeeds: %v", err)
		}
		return err
	}
	s.storeMu.Lock()
	err = st.FinishCompact(c)
	if err != nil {
		// The on-disk pair stays consistent whether or not the swap
		// happened (the snapshot is durable and stamped with the
		// generation+cut it covers), but a failure here means appends
		// may not be reaching durable storage — latch until a
		// compaction fully succeeds.
		s.storeFailed = true
	}
	s.storeMu.Unlock()
	if err != nil {
		log.Printf("accessserver: snapshot compaction failed, durability suspended until one succeeds: %v", err)
	}
	return err
}

// buildSnapshotLocked captures the server's full persistent state.
// Callers hold s.mu, which every Users and Ledger writer holds too.
func (s *Server) buildSnapshotLocked() *store.Snapshot {
	snap := &store.Snapshot{Ledger: map[string][]store.LedgerRec{}}

	for _, n := range slices.Sorted(maps.Keys(s.Users.byName)) {
		u := s.Users.byName[n]
		snap.Users = append(snap.Users, store.UserRec{Name: u.Name, Role: int(u.Role), Token: u.Token})
	}

	snap.Balances = map[string]float64{}
	for _, u := range slices.Sorted(maps.Keys(s.Ledger.history)) {
		entries := make([]store.LedgerRec, len(s.Ledger.history[u]))
		for i, e := range s.Ledger.history[u] {
			entries[i] = store.LedgerRec{User: u, Delta: e.Delta, Reason: e.Reason}
		}
		snap.Ledger[u] = entries
	}
	for u, bal := range s.Ledger.balances {
		snap.Balances[u] = bal
	}

	snap.NextBuild = s.nextID
	snap.NextCampaign = s.nextCampaign

	for _, n := range slices.Sorted(maps.Keys(s.jobs)) {
		snap.Jobs = append(snap.Jobs, jobRecord(s.jobs[n]))
	}

	for _, n := range s.nodeNames {
		snap.Nodes = append(snap.Nodes, s.nodeRecs[n].NodeRec)
	}

	for _, id := range slices.Sorted(maps.Keys(s.builds)) {
		b := s.builds[id]
		b.mu.Lock()
		snap.Builds = append(snap.Builds, b.BuildRec)
		b.mu.Unlock()
	}

	for _, id := range slices.Sorted(maps.Keys(s.campaigns)) {
		rec := s.campaigns[id]
		snap.Campaigns = append(snap.Campaigns, store.CampaignRec{
			ID:            id,
			MaxConcurrent: rec.maxConcurrent,
			Builds:        append([]int(nil), rec.builds...),
		})
	}

	// Cluster peers: name and URL only — liveness is never persisted
	// (a restored peer proves itself alive again with its first
	// announce). Peers() returns name-sorted peers, so snapshots stay
	// deterministic.
	for _, p := range s.cluster.Peers() {
		snap.Peers = append(snap.Peers, store.PeerRec{Name: p.Name, URL: p.URL})
	}
	return snap
}
