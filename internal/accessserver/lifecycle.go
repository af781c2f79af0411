package accessserver

import (
	"errors"
	"fmt"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
)

// The build lifecycle. A build is queued, then running, then settled
// (success, failure or aborted); a running build whose vantage point is
// lost goes back to queued while its retry budget lasts. Each step has
// one body here, and everything else in the package that moves a build
// calls it:
//
//	claimLocked    queued → running: the drain pass, for every build it places
//	releaseLocked  gives back exactly what claimLocked took
//	reclaimLocked  running → queued or settled: the lease watchdog, a broken
//	               relay, a peer leaving the online set, crash recovery
//	settleLocked   → terminal: finish, Abort, aging, RemoveNode, DeleteJob,
//	               and reclaimLocked when a lost build cannot run again
//
// A transition that changes what a restart must bring back builds the
// WAL record of the change, runs applyBuild (persist.go) with it on the
// build's BuildRec — the function replay runs on the same record — and
// logs it; none assigns a durable field itself.
//
// All four run under s.mu and take b.mu themselves. What they log and
// which nodes they touch leaves with the critical section they run in
// (leaveSection); the build they moved they republish themselves.

// claimLocked starts queued build b on placement pl, whose lock key the
// drain pass found free: it takes the lock, an executor slot and the
// campaign, owner and node running counts, arms the lease and returns
// the pipeline for dispatch to start outside the lock.
func (s *Server) claimLocked(b *Build, pl placement, key lockKey, now time.Time) *pick {
	s.uncountQueuedLocked(b)
	// A claim moves a lock and a running count, which every verdict not
	// pinned to a node may have read; the node's own verdicts fall with
	// the touch below.
	s.placeEpoch++
	under := s.locks[key.name]
	if under == nil {
		under = make(map[string]int, 1)
		s.locks[key.name] = under
	}
	under[key.device] = b.ID
	b.held = key
	s.running++
	s.m.queued--
	s.m.dispatched++
	s.m.dispatchLatency.Observe(time.Duration(now.UnixNano() - b.QueuedAtNS).Seconds())
	if b.camp != nil {
		b.camp.running++
	}
	s.ownerRunning[b.Owner]++
	b.schedReason = ""
	// A routed build's lease is its peer's heartbeat (the relay reports
	// most failures itself; the lease catches the peer falling silent
	// mid-run); a local one's is its node's, if the node is monitored.
	run, leased := b.run, true
	if pl.peer == "" {
		// Only local placements count on a node record: nodeRecs describes
		// nodes attached to this server, and a peer's node must never leak
		// into the local census.
		rec := s.nodeRecs[pl.nodeName]
		if pl.pinned && rec.Monitored {
			// The status surface's score of a pinned placement, where there
			// is telemetry to score (an unmonitored node has none). It reads
			// the running count this claim is about to move and how recently
			// the node flapped, so it is computed here, once, for the build
			// that starts — not at every visit of every build waiting.
			pl.score = s.placer.Score(s.candidateLocked(rec, pl.device, pl.device, now))
		}
		rec.running++
		s.touchNodeLocked(pl.nodeName)
		leased = rec.Monitored
	} else {
		s.m.clusterRouted++
		run = s.relayRun(b, pl)
	}

	b.mu.Lock()
	attempt := b.BuildRec.Attempts + 1
	started := store.Record{T: store.TBuildStarted, BuildID: b.ID,
		NodeName: pl.nodeName, Attempt: attempt, AtNS: now.UnixNano()}
	applyBuild(&b.BuildRec, &started)
	b.routedVia = pl.peer
	b.pendingReason = ""
	b.placementScore = pl.score
	// The aging timer is done: left armed, it would outlive a failover and
	// fail the requeued build against the original deadline.
	if b.agingTimer != nil {
		b.agingTimer.Stop()
		b.agingTimer = nil
	}
	if leased {
		b.leaseTimer = s.clock.AfterFunc(s.cfg.OfflineAfter, func() { s.checkLease(b, attempt) })
	}
	b.mu.Unlock()
	s.logStore(started)
	s.publishBuildLocked(b)
	return &pick{b: b, run: run, node: pl.node, nodeName: pl.nodeName, device: pl.device}
}

// releaseLocked gives back what claimLocked took for b, and reports
// whether b held anything: a build recovered from the WAL as running
// holds nothing in this process — the crash released it.
func (s *Server) releaseLocked(b *Build) bool {
	k := b.held
	if k == (lockKey{}) {
		return false
	}
	under := s.locks[k.name]
	if delete(under, k.device); len(under) == 0 {
		delete(s.locks, k.name)
	}
	b.held = lockKey{}
	s.running--
	if b.camp != nil {
		b.camp.running--
	}
	if s.ownerRunning[b.Owner]--; s.ownerRunning[b.Owner] <= 0 {
		delete(s.ownerRunning, b.Owner)
	}
	b.mu.Lock()
	node, local := b.Node, b.routedVia == ""
	if b.leaseTimer != nil {
		b.leaseTimer.Stop()
		b.leaseTimer = nil
	}
	b.mu.Unlock()
	if local {
		s.nodeRecs[node].running--
		s.touchNodeLocked(node)
	}
	return true
}

// reclaimLocked takes running build b back from a lost vantage point:
// everything it held is released, and the build either settles — aborted
// if its owner had asked to cancel, failed with ErrNodeLost if the retry
// budget is spent — or is queued again, after an exponential backoff
// unless backoff is false (crash recovery: the restart already cost more
// than any backoff would). It returns the abandoned attempt's cancel
// hook for the caller to invoke outside the lock, tearing down a session
// that might still be alive on a merely partitioned node.
func (s *Server) reclaimLocked(b *Build, reason string, backoff bool) (cancel func()) {
	now := s.clock.Now()
	held := s.releaseLocked(b)
	b.mu.Lock()
	r := &b.BuildRec
	// The attempt is gone whatever comes next: the build is queued again,
	// with the retries it had. Only a granted retry is logged, with one
	// more — a build that settles instead logs its finished record.
	lost := store.Record{T: store.TBuildFailover, BuildID: b.ID,
		Retries: r.Retries, Reason: reason, AtNS: now.UnixNano()}
	if held {
		applyBuild(r, &lost)
		s.m.queued++
		s.m.leaseBreaks++
		if rec := s.nodeRecs[r.Node]; rec != nil && b.routedVia == "" {
			// Reliability telemetry: the node lost a leased build. The
			// placer penalizes it on every future fallback decision.
			rec.failovers++
			s.touchNodeLocked(r.Node)
		}
	}
	// Later done() calls from the abandoned pipeline are stale (finish
	// checks the attempt); its cancel hook is detached, not armed the way
	// Abort does, which would taint the retry with the canceled flag.
	cancel, b.canceler = b.canceler, nil
	if r.Canceled {
		fmt.Fprintf(&b.log, "attempt %d lost after a cancel request: %s\n", r.Attempts, reason)
		b.mu.Unlock()
		s.settleLocked(b, nil)
		return cancel
	}
	b.feed.PostEvent(api.BuildEvent{
		Build: b.ID,
		Node:  r.Node,
		Phase: api.EventFailover,
		AtNS:  now.UnixNano(),
		Error: reason,
	})
	if r.Retries >= s.cfg.MaxRetries {
		err := fmt.Errorf("%w: %s after %d retries", ErrNodeLost, reason, r.Retries)
		if b.routedVia != "" {
			// A routed build lost with its peer is both families at once:
			// ErrPeerLost for callers that care about federation, and
			// ErrNodeLost so the wire's node_lost flag (and every existing
			// failover consumer) keeps working.
			err = markedErr(err.Error(), ErrNodeLost, ErrPeerLost)
		}
		b.mu.Unlock()
		s.settleLocked(b, err)
		return cancel
	}
	lost.Retries++
	applyBuild(r, &lost)
	s.m.failoverRequeues++
	wait := ""
	if backoff {
		delay := s.cfg.RetryBackoff << (r.Retries - 1)
		wait = " in " + delay.String()
		attempt := r.Attempts
		b.retryTimer = s.clock.AfterFunc(delay, func() { s.requeue(b, attempt) })
	}
	b.pendingReason = fmt.Sprintf("%s; retry %d/%d%s", reason, r.Retries, s.cfg.MaxRetries, wait)
	b.schedReason = b.pendingReason
	fmt.Fprintf(&b.log, "build requeued: %s (retry %d/%d%s)\n", reason, r.Retries, s.cfg.MaxRetries, wait)
	s.logStore(lost)
	b.mu.Unlock()
	if !backoff {
		s.queuePushLocked(b)
	}
	s.publishBuildLocked(b)
	return cancel
}

// requeue returns a failed-over build to the queue once its backoff has
// elapsed. Abort settles a build in backoff at once and stops this
// timer; the check covers a timer that had already fired.
func (s *Server) requeue(b *Build, attempt int) {
	s.mu.Lock()
	b.mu.Lock()
	waiting := b.BuildRec.State == StateQueued.String() && b.BuildRec.Attempts == attempt
	if waiting {
		b.retryTimer = nil
	}
	b.mu.Unlock()
	if !waiting {
		s.mu.Unlock()
		return
	}
	s.queuePushLocked(b)
	s.publishBuildLocked(b)
	s.mu.Unlock()
	s.dispatch()
}

// reclaimUnlock reclaims builds the caller found running on a lost
// vantage point, drops s.mu (which the caller holds), tears down the
// abandoned sessions and redispatches.
func (s *Server) reclaimUnlock(reason string, lost ...*Build) {
	var cancels []func()
	for _, b := range lost {
		if c := s.reclaimLocked(b, reason, true); c != nil {
			cancels = append(cancels, c)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.dispatch()
}

// checkLease is the per-attempt lease watchdog. The lease follows the
// heartbeat of whatever runs the attempt — the peer for a routed build,
// the node for a local one: while that keeps beating the lease re-arms
// one offline window past the latest beat; once it has been silent a
// full window the build is reclaimed. Removal is not a lease break
// (admin-removed nodes let running builds finish, see RemoveNode) and
// unmonitored nodes have no heartbeat to lose: for both the watchdog
// stays armed but dormant, so protection resumes if the node is
// monitored again later and then dies.
func (s *Server) checkLease(b *Build, attempt int) {
	s.mu.Lock()
	if !b.live(attempt) {
		s.mu.Unlock()
		return
	}
	node, peer := b.NodeName(), b.RoutedVia()
	now := s.clock.Now()
	// beat is the latest heartbeat the lease hangs on (peers announce on
	// the nodes' cadence); watched is false for a node with no heartbeat
	// to lose.
	var beat time.Time
	watched := true
	if peer != "" {
		p, _ := s.cluster.Peer(peer)
		beat = p.LastBeat // zero for an evicted or never-announced peer: lost
	} else if rec := s.nodeRecs[node]; rec != nil && rec.Monitored && !rec.Removed {
		beat = rec.lastBeat
	} else {
		watched = false
	}
	if !watched || now.Sub(beat) < s.cfg.OfflineAfter {
		next := s.cfg.OfflineAfter
		if watched {
			next = max(beat.Add(s.cfg.OfflineAfter).Sub(now), s.cfg.HeartbeatEvery)
		}
		b.mu.Lock()
		b.leaseTimer = s.clock.AfterFunc(next, func() { s.checkLease(b, attempt) })
		b.mu.Unlock()
		s.mu.Unlock()
		return
	}
	reason := fmt.Sprintf("node %q offline (last heartbeat %s ago)", node, now.Sub(beat))
	if peer != "" {
		s.m.clusterPeerLost++
		reason = fmt.Sprintf("peer %q lost (no announce within %s)", peer, s.cfg.OfflineAfter)
	}
	s.reclaimUnlock(reason, b)
}

// settleLocked is the one terminal transition. A pipeline that reported
// nil succeeded (only finish settles a running build); anything else
// that ends a build its owner asked to cancel is an abort; the rest are
// failures. It records the result, stops the build's timers, logs the
// finished record, republishes and then closes the feed — the hub and
// the read plane are leaf locks, and doing both inside the scheduler's
// critical section keeps snapshot order identical to transition order
// (monotonic reads for status pollers) — and schedules retention.
// Publish comes first because a stream's clean end is how a follower
// learns the build settled: by the time the feed closes, the terminal
// status must already be readable. Whatever the build held must have
// been released already.
func (s *Server) settleLocked(b *Build, err error) {
	b.mu.Lock()
	r := &b.BuildRec
	fin := store.Record{T: store.TBuildFinished, BuildID: b.ID,
		Canceled: r.Canceled, NodeName: r.Node, Attempt: r.Attempts, Retries: r.Retries,
		Summary: b.reported, AtNS: s.clock.Now().UnixNano()}
	if err != nil {
		fin.Err = err.Error()
		fin.NodeLost = errors.Is(err, ErrNodeLost)
	}
	if r.State == StateQueued.String() {
		s.m.queued--
	}
	switch {
	case err == nil && r.State == StateRunning.String():
		fin.State = StateSuccess.String()
		s.m.succeeded++
		fmt.Fprintf(&b.log, "build succeeded\n")
	case r.Canceled:
		fin.State = StateAborted.String()
		s.m.aborted++
		fmt.Fprintf(&b.log, "build aborted\n")
	default:
		fin.State = StateFailure.String()
		s.m.failed++
		fmt.Fprintf(&b.log, "build failed: %v\n", err)
	}
	applyBuild(r, &fin)
	b.err = err
	b.stopTimersLocked()
	s.logStore(fin)
	b.mu.Unlock()
	if s.ownerActive[b.Owner]--; s.ownerActive[b.Owner] <= 0 {
		delete(s.ownerActive, b.Owner)
	}
	s.publishBuildLocked(b)
	s.hub.Close(b.ID)
	s.scheduleRetention(b)
}
