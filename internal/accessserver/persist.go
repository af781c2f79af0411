package accessserver

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"sort"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/simclock"
)

// Persistence glue: the server's state mutations append to an optional
// write-ahead log (internal/accessserver/store), and AttachStore
// replays snapshot+WAL to reconstruct the in-memory maps after a
// restart. The policy decisions live here; the store package only
// frames records durably.
//
// Recovery semantics, in one place:
//
//   - Users come back with their original tokens; ledger balances and
//     histories replay exactly.
//   - Jobs come back whole — spec, revision, approval — and runnable.
//     Every non-terminal build recompiles its own wire spec through the
//     SpecBackend.
//   - Node lifecycle state (drain flags, removal tombstones, owner,
//     cached devices) survives; the live Node handles do not, so the
//     hosting process re-registers its nodes at startup, before
//     AttachStore.
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
// storeMu is a leaf mutex: callers may hold s.mu and/or b.mu.
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

// logStore appends one record to the WAL.
func (s *Server) logStore(rec store.Record) {
	s.walDo("append", func(st *store.Store) error { return st.Append(rec) })
}

// logStoreBatch appends a group of records in one WAL write (one frame
// assembly, one syscall). The batch is all-or-nothing in the common
// case — a partial write is a torn tail the next replay truncates — so
// callers use it for record groups that describe one logical mutation
// (a campaign and its builds).
func (s *Server) logStoreBatch(recs []store.Record) {
	if len(recs) > 0 {
		s.walDo("batch append", func(st *store.Store) error { return st.AppendBatch(recs) })
	}
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
	nodes        map[string]store.NodeRec
	builds       map[int]store.BuildRec
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
		nodes:        map[string]store.NodeRec{},
		builds:       map[int]store.BuildRec{},
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
	for _, n := range snap.Nodes {
		rs.nodes[n.Name] = n
	}
	for _, b := range snap.Builds {
		rs.builds[b.ID] = b
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

// apply folds one WAL record in.
func (rs *replayState) apply(rec store.Record) {
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
			n := rs.nodes[rec.Node.Name]
			owner := rec.Node.Owner
			if owner == "" {
				owner = n.Owner // an owner set before (re-)monitoring sticks
			}
			nn := *rec.Node
			nn.Owner = owner
			// The monitor record carries no accrual state; keep what the
			// snapshot (or a prior record) established.
			nn.OwedHostingNS = n.OwedHostingNS
			rs.nodes[nn.Name] = nn
		}
	case store.TNodeOwner:
		n := rs.nodes[rec.Name]
		n.Name = rec.Name
		// Mirror the live path: only a genuine transfer resets accrual
		// (its flush landed as the preceding TNodeHostingFlush record);
		// a same-owner re-set — a daemon's -owner flag on every boot —
		// keeps the sub-threshold remainder.
		if n.Owner != rec.Owner {
			n.OwedHostingNS = 0
		}
		n.Owner = rec.Owner
		rs.nodes[rec.Name] = n
	case store.TNodeDrain:
		n := rs.nodes[rec.Name]
		n.Name = rec.Name
		n.Draining = rec.Draining
		rs.nodes[rec.Name] = n
	case store.TNodeRemoved:
		n := rs.nodes[rec.Name]
		n.Name = rec.Name
		n.Removed = true
		n.Monitored = false
		n.Draining = false
		n.OwedHostingNS = 0 // flushed at removal
		rs.nodes[rec.Name] = n
	case store.TNodeHostingFlush:
		// The combined record: zero the node's accrual AND apply the
		// owner's contribution credit — together or not at all.
		n := rs.nodes[rec.Name]
		n.Name = rec.Name
		n.OwedHostingNS = 0
		rs.nodes[rec.Name] = n
		e := hostingEntry(rec.Name, time.Duration(rec.AtNS))
		rs.ledger[rec.Owner] = append(rs.ledger[rec.Owner], store.LedgerRec{
			User: rec.Owner, Delta: e.Delta, Reason: e.Reason,
		})
		rs.balances[rec.Owner] += e.Delta
	case store.TBuildQueued:
		if rec.Build != nil {
			rs.builds[rec.Build.ID] = *rec.Build
			if rec.Build.ID >= rs.nextBuild {
				rs.nextBuild = rec.Build.ID + 1
			}
		}
	case store.TBuildStarted:
		b := rs.builds[rec.BuildID]
		if b.ID == 0 {
			return
		}
		b.State = StateRunning.String()
		b.Node = rec.NodeName
		b.Attempts = rec.Attempt
		b.StartedAtNS = rec.AtNS
		rs.builds[b.ID] = b
	case store.TBuildCancelWant:
		b := rs.builds[rec.BuildID]
		if b.ID == 0 {
			return
		}
		b.Canceled = true
		rs.builds[b.ID] = b
	case store.TBuildFailover:
		b := rs.builds[rec.BuildID]
		if b.ID == 0 {
			return
		}
		b.State = StateQueued.String()
		b.Retries = rec.Retries
		rs.builds[b.ID] = b
	case store.TBuildFinished:
		b := rs.builds[rec.BuildID]
		if b.ID == 0 {
			return
		}
		b.State = rec.State
		b.Err = rec.Err
		b.Canceled = rec.Canceled
		b.NodeLost = rec.NodeLost
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
		rs.builds[b.ID] = b
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

// parseState inverts BuildState.String.
func parseState(s string) (BuildState, bool) {
	switch s {
	case "queued":
		return StateQueued, true
	case "running":
		return StateRunning, true
	case "success":
		return StateSuccess, true
	case "failure":
		return StateFailure, true
	case "aborted":
		return StateAborted, true
	}
	return 0, false
}

// AttachStore replays the store's snapshot+WAL into the server and
// turns on write-ahead logging for every mutation from here on. It
// must run before the server takes traffic: after the SpecBackend is
// installed and the deployment's nodes are registered (so queued spec
// builds can recompile and dispatch), and at most once.
func (s *Server) AttachStore(st *store.Store) (RecoveryStats, error) {
	s.storeMu.Lock()
	if s.store != nil {
		s.storeMu.Unlock()
		return RecoveryStats{}, fmt.Errorf("accessserver: a store is already attached")
	}
	s.storeMu.Unlock()

	snap, recs := st.Load()
	rs := newReplayState(snap)
	for _, rec := range recs {
		rs.apply(rec)
	}

	var stats RecoveryStats
	// Records to append once the store is live: the failover/failure
	// transitions recovery itself causes (so a second crash replays
	// them too).
	var pending []store.Record

	defer s.holdClock()()
	now := s.clock.Now()

	// Users and ledger first: independent of scheduler state.
	for _, u := range rs.users {
		s.Users.restore(u.Name, Role(u.Role), u.Token)
		stats.Users++
	}
	ledgerUsers := make([]string, 0, len(rs.ledger))
	for user := range rs.ledger {
		ledgerUsers = append(ledgerUsers, user)
	}
	sort.Strings(ledgerUsers)
	for _, user := range ledgerUsers {
		entries := make([]LedgerEntry, len(rs.ledger[user]))
		for i, e := range rs.ledger[user] {
			entries[i] = LedgerEntry{Delta: e.Delta, Reason: e.Reason}
		}
		s.Ledger.restore(user, rs.balances[user], entries)
		stats.Ledger += len(entries)
	}

	// Cluster membership: known peers come back by name and URL but
	// start offline (zero last-beat) — the next announce exchange proves
	// them alive again, and until then the scheduler will not route
	// builds their way.
	peerNames := make([]string, 0, len(rs.peers))
	for name := range rs.peers {
		peerNames = append(peerNames, name)
	}
	sort.Strings(peerNames)
	for _, name := range peerNames {
		s.cluster.Restore(name, rs.peers[name].URL)
	}

	s.mu.Lock()
	backend := s.specs

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
	nodeNames := make([]string, 0, len(rs.nodes))
	for name := range rs.nodes {
		nodeNames = append(nodeNames, name)
	}
	sort.Strings(nodeNames)
	for _, name := range nodeNames {
		nr := rs.nodes[name]
		rec := s.recLocked(name)
		s.touchNodeLocked(name)
		rec.owner = nr.Owner
		rec.owedHosting = time.Duration(nr.OwedHostingNS)
		rec.draining = nr.Draining
		rec.lastBeat = now
		if len(rec.devices) == 0 {
			rec.devices = append([]string(nil), nr.Devices...)
		}
		if nr.Removed {
			// Tombstoned — unless the node already re-registered this
			// boot, which ends the removal like the live path does.
			if _, err := s.Nodes.Get(name); err != nil {
				rec.removed = true
				rec.monitored = false
			}
		}
		if nr.Monitored && !nr.Removed && !rec.monitored {
			rec.monitored = true
			rec.ticker = simclock.NewTicker(s.clock, s.cfg.HeartbeatEvery, func(time.Time) {
				s.probeNode(name)
			})
		}
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
	ids := make([]int, 0, len(rs.builds))
	for id := range rs.builds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		br := rs.builds[id]
		state, ok := parseState(br.State)
		if !ok {
			continue
		}
		b := &Build{
			ID:        br.ID,
			Job:       br.Job,
			Owner:     br.Owner,
			campaign:  br.Campaign,
			wireSpec:  br.Spec,
			recovered: true,
			// Every recovery hands the build a fresh feed, so the epoch
			// moves: clients' resume cursors (and feed-derived
			// aggregates) from before the restart are void — including
			// across a second restart, which bumps it again.
			feedEpoch: br.FeedEpoch + 1,
			workspace: NewWorkspace(),
			feed:      s.hub.Create(br.ID, br.FeedEpoch+1),
		}
		b.queuedAt = now
		if br.QueuedAtNS != 0 {
			b.queuedAt = time.Unix(0, br.QueuedAtNS)
		}
		if br.StartedAtNS != 0 {
			b.startedAt = time.Unix(0, br.StartedAtNS)
		}
		if br.FinishedAtNS != 0 {
			b.finishedAt = time.Unix(0, br.FinishedAtNS)
		}
		b.nodeName = br.Node
		b.attempt = br.Attempts
		b.retries = br.Retries
		b.cancelWant = br.Canceled
		if br.Summary != nil {
			cp := *br.Summary
			b.summary = &cp
		}
		s.builds[b.ID] = b
		stats.Builds++
		s.m.submitted++

		if state != StateQueued && state != StateRunning {
			// Already terminal on disk: restored as it was, not settled
			// again.
			b.state = state
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
			s.hub.Close(b.ID)
			s.publishBuildLocked(b)
			s.scheduleRetention(b)
			continue
		}

		// Live again, as a queued build holding nothing (the crash released
		// whatever a running one held), and counted like one: admission
		// fairness must survive a restart, or an owner could double their
		// quota by crashing the server. The transitions recovery causes
		// from here are the live ones, their records collected in pending.
		b.state = StateQueued
		s.m.queued++
		s.ownerActive[b.Owner]++
		if br.Canceled {
			// A cancel was requested before the crash but the build never
			// settled: rerunning (and charging) a canceled experiment would
			// be worse than the lost teardown.
			s.settleLocked(b, nil, &pending)
			continue
		}
		// The build must run again, so recompile its spec through the
		// backend. (A build of a closure job, logged before jobs stored
		// their spec, has none to compile.)
		var compileErr error
		switch {
		case b.wireSpec == nil:
			compileErr = fmt.Errorf("%w: build %d was logged without a spec", ErrInvalid, b.ID)
		case backend == nil:
			compileErr = fmt.Errorf("%w: no spec backend installed at recovery", ErrInvalid)
		default:
			b.cons, b.run, compileErr = backend.Compile(*b.wireSpec)
		}
		switch {
		case compileErr != nil:
			s.settleLocked(b, fmt.Errorf("build %d unrecoverable after restart: %w", b.ID, compileErr), &pending)
			stats.Failed++
		case state == StateRunning:
			// The crash broke the lease: the attempt's work is gone.
			s.reclaimLocked(b, fmt.Sprintf("access server restarted while attempt %d ran on %q", b.attempt, b.nodeName), false, &pending)
			if b.state == StateQueued {
				stats.Resumed++
			} else {
				stats.Failed++
			}
		default:
			s.queuePushLocked(b)
			s.publishBuildLocked(b)
			stats.Requeued++
		}
	}

	// Prime the feed-plane high-water mark and the rest of the read plane
	// with the recovered world before the lock drops: ids whose records
	// expired before the restart must resolve as expired (not unknown),
	// and the snapshot routes must serve the recovered state from the
	// first request rather than waiting for the next transition to
	// publish. Every build was published once above, by the branch or the
	// transition that decided its state.
	s.hub.SetHighWater(s.nextID - 1)
	for id, rec := range s.campaigns {
		s.reads.publishCampaign(id, rec.builds)
	}
	if s.nextCampaign > 1 {
		s.reads.highCamp.Store(int64(s.nextCampaign - 1))
	}
	s.publishCensusLocked()
	s.mu.Unlock()

	// Go live: install the store and the observation hooks, flush the
	// transitions recovery itself caused, arm periodic compaction.
	s.storeMu.Lock()
	s.store = st
	appendErr := st.AppendBatch(pending)
	s.storeMu.Unlock()
	if appendErr != nil {
		// Latch the failure so a caller that continues anyway cannot
		// append later records onto a WAL with a silent gap.
		s.storeMu.Lock()
		s.storeFailed = true
		s.storeMu.Unlock()
		return stats, fmt.Errorf("accessserver: flushing recovery records: %w", appendErr)
	}
	s.Users.setHook(func(u User, removed bool) {
		if removed {
			s.logStore(store.Record{T: store.TUserRemoved, Name: u.Name})
			return
		}
		s.logStore(store.Record{T: store.TUserAdded, User: &store.UserRec{
			Name: u.Name, Role: int(u.Role), Token: u.Token,
		}})
	})
	s.Ledger.setHook(func(user string, e LedgerEntry) {
		s.logStore(store.Record{T: store.TLedger, Entry: &store.LedgerRec{
			User: user, Delta: e.Delta, Reason: e.Reason,
		}})
	})
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
// built, and the WAL cut offset taken, under one lock ordering (s.mu →
// Users.mu → Ledger.mu → storeMu — the same relative order every WAL
// writer uses), so every record before the cut describes state the
// snapshot contains. The expensive part — marshaling and fsyncing the
// snapshot file — then runs with all of those released: records
// appended meanwhile land past the cut, and FinishCompact preserves
// them when it resets the log. The scheduler never waits on a disk
// flush.
func (s *Server) CompactStore() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()
	defer func() { s.m.snapshotLatency.Observe(time.Since(start).Seconds()) }()

	s.mu.Lock()
	s.Users.mu.RLock()
	s.Ledger.mu.Lock()
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
	s.Ledger.mu.Unlock()
	s.Users.mu.RUnlock()
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
// Callers hold s.mu, Users.mu (read) and Ledger.mu.
func (s *Server) buildSnapshotLocked() *store.Snapshot {
	snap := &store.Snapshot{Ledger: map[string][]store.LedgerRec{}}

	names := make([]string, 0, len(s.Users.byName))
	for n := range s.Users.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u := s.Users.byName[n]
		snap.Users = append(snap.Users, store.UserRec{Name: u.Name, Role: int(u.Role), Token: u.Token})
	}

	snap.Balances = map[string]float64{}
	users := make([]string, 0, len(s.Ledger.history))
	for u := range s.Ledger.history {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
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

	jobNames := make([]string, 0, len(s.jobs))
	for n := range s.jobs {
		jobNames = append(jobNames, n)
	}
	sort.Strings(jobNames)
	for _, n := range jobNames {
		snap.Jobs = append(snap.Jobs, jobRecord(s.jobs[n]))
	}

	nodeNames := make([]string, 0, len(s.nodeRecs))
	for n := range s.nodeRecs {
		nodeNames = append(nodeNames, n)
	}
	sort.Strings(nodeNames)
	for _, n := range nodeNames {
		rec := s.nodeRecs[n]
		snap.Nodes = append(snap.Nodes, store.NodeRec{
			Name:          rec.name,
			Owner:         rec.owner,
			Monitored:     rec.monitored,
			Draining:      rec.draining,
			Removed:       rec.removed,
			Devices:       append([]string(nil), rec.devices...),
			OwedHostingNS: int64(rec.owedHosting),
		})
	}

	ids := make([]int, 0, len(s.builds))
	for id := range s.builds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := s.builds[id]
		b.mu.Lock()
		br := store.BuildRec{
			ID:       b.ID,
			Job:      b.Job,
			Owner:    b.Owner,
			Campaign: b.campaign,
			Spec:     b.wireSpec,
			State:    b.state.String(),
			Canceled: b.cancelWant,
			Node:     b.nodeName,
			Attempts: b.attempt,
			Retries:  b.retries,
		}
		if !b.queuedAt.IsZero() {
			br.QueuedAtNS = b.queuedAt.UnixNano()
		}
		if !b.startedAt.IsZero() {
			br.StartedAtNS = b.startedAt.UnixNano()
		}
		if !b.finishedAt.IsZero() {
			br.FinishedAtNS = b.finishedAt.UnixNano()
		}
		if b.err != nil {
			br.Err = b.err.Error()
			br.NodeLost = errors.Is(b.err, ErrNodeLost)
		}
		if b.summary != nil {
			cp := *b.summary
			br.Summary = &cp
		}
		br.FeedEpoch = b.feedEpoch
		b.mu.Unlock()
		snap.Builds = append(snap.Builds, br)
	}

	cids := make([]int, 0, len(s.campaigns))
	for id := range s.campaigns {
		cids = append(cids, id)
	}
	sort.Ints(cids)
	for _, id := range cids {
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
