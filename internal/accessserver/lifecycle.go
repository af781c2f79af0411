package accessserver

import (
	"errors"
	"fmt"
	"time"

	"batterylab/internal/accessserver/sched"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
)

// The build lifecycle. A build is queued, then running, then settled
// (success, failure or aborted); a running build whose vantage point is
// lost goes back to queued while its retry budget lasts. Each step has
// one body here (what a build holds, the scheduler core takes at a claim
// and gives back in sched.Release), and everything else in the package
// that moves a build calls it:
//
//	claimLocked    queued → running: for every build a drain pass picked
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
// All three run under s.mu and take b.mu themselves. They decide and mark:
// the records they log, the builds and nodes they touch, the events they
// queue, the feeds they end and the cancel hooks they detach all leave at
// the one exit of the section they run in (leaveSection), the log first.

// claimLocked is the durable half of a claim: the scheduler core's drain
// pass picked queued build b for placement p and took its lock, executor
// slot and running counts. Here the build is started: its record, its
// lease, and the pipeline for dispatch to start outside the lock.
func (s *Server) claimLocked(b *Build, p sched.Pick, now time.Time) *pick {
	s.m.queued--
	s.m.dispatched++
	s.m.dispatchLatency.Observe(time.Duration(now.UnixNano() - b.QueuedAtNS).Seconds())
	// A routed build's lease is its peer's heartbeat (the relay reports
	// most failures itself; the lease catches the peer falling silent
	// mid-run); a local one's is its node's, if the node is monitored.
	pl, run, leased := p.Placement, b.run, true
	var node Node
	if pl.Peer == "" {
		rec := s.nodeRecs[pl.Node]
		if pl.Pinned && rec.Monitored {
			// The status surface's score of a pinned placement, where there
			// is telemetry to score (an unmonitored node has none). It reads
			// the running count the claim moved, as it was before, and how
			// recently the node flapped, so it is computed here, once, for
			// the build that starts — not at every visit of every build
			// waiting.
			c := s.candidateLocked(rec, pl.Device, pl.Device, now)
			c.Running = p.Running
			pl.Score = s.placer.Score(c)
		}
		node, leased = rec.node, rec.Monitored
	} else {
		s.m.clusterRouted++
		run = s.relayRun(b, pl)
	}

	b.mu.Lock()
	attempt := b.BuildRec.Attempts + 1
	started := store.Record{T: store.TBuildStarted, BuildID: b.ID,
		NodeName: pl.Node, Attempt: attempt, AtNS: now.UnixNano()}
	applyBuild(&b.BuildRec, &started)
	b.routedVia = pl.Peer
	b.placementScore = pl.Score
	b.mu.Unlock()
	if leased {
		b.watchFor(watchLease, s.clock.AfterFunc(s.cfg.OfflineAfter, func() { s.checkLease(b, attempt) }))
	} else {
		b.watchFor(watchNone, nil)
	}
	s.logStore(started)
	s.touchBuildLocked(b)
	return &pick{b: b, run: run, node: node, nodeName: pl.Node, device: pl.Device}
}

// reclaimLocked takes running build b back from a lost vantage point:
// everything it held is released, and the build either settles — aborted
// if its owner had asked to cancel, failed with ErrNodeLost if the retry
// budget is spent — or is queued again, after an exponential backoff
// unless backoff is false (crash recovery: the restart already cost more
// than any backoff would). The abandoned attempt's cancel hook runs once
// the section has let go of the lock, tearing down a session that might
// still be alive on a merely partitioned node.
func (s *Server) reclaimLocked(b *Build, reason string, backoff bool) {
	now := s.clock.Now()
	held := s.sched.Release(&b.Entry) // false for a build recovered as running: the crash released it
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
			s.sched.Touch(r.Node)
		}
	}
	// Later done() calls from the abandoned pipeline are stale (finish
	// checks the attempt); its cancel hook is detached, not armed the way
	// Abort does, which would taint the retry with the canceled flag.
	if b.canceler != nil {
		s.exit.cancels = append(s.exit.cancels, b.canceler)
		b.canceler = nil
	}
	if r.Canceled {
		fmt.Fprintf(&b.log, "attempt %d lost after a cancel request: %s\n", r.Attempts, reason)
		b.mu.Unlock()
		s.settleLocked(b, nil)
		return
	}
	s.exit.events = append(s.exit.events, feedEvent{b.feed, api.BuildEvent{
		Build: b.ID,
		Node:  r.Node,
		Phase: api.EventFailover,
		AtNS:  now.UnixNano(),
		Error: reason,
	}})
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
		return
	}
	lost.Retries++
	applyBuild(r, &lost)
	s.m.failoverRequeues++
	wait := ""
	if backoff {
		delay := s.cfg.RetryBackoff << (r.Retries - 1)
		wait = " in " + delay.String()
		attempt := r.Attempts
		b.watchFor(watchRetry, s.clock.AfterFunc(delay, func() { s.requeue(b, attempt) }))
	}
	s.sched.SetLabel(&b.Entry, sched.Retry, fmt.Sprintf("%s; retry %d/%d%s", reason, r.Retries, s.cfg.MaxRetries, wait))
	fmt.Fprintf(&b.log, "build requeued: %s (retry %d/%d%s)\n", reason, r.Retries, s.cfg.MaxRetries, wait)
	s.logStore(lost)
	b.mu.Unlock()
	if !backoff {
		s.queueLocked(b)
	}
	s.touchBuildLocked(b)
}

// requeue returns a failed-over build to the queue once its backoff has
// elapsed. Abort settles a build in backoff at once and disarms this
// timer; the check covers a timer that had already fired.
func (s *Server) requeue(b *Build, attempt int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.State() == StateQueued && b.Attempts == attempt {
		s.queueLocked(b)
		s.exit.redrain = true
	}
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
	defer s.mu.Unlock()
	if !b.live(attempt) {
		return
	}
	node, peer := b.Node, b.routedVia
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
		b.watchFor(watchLease, s.clock.AfterFunc(next, func() { s.checkLease(b, attempt) }))
		return
	}
	reason := fmt.Sprintf("node %q offline (last heartbeat %s ago)", node, now.Sub(beat))
	if peer != "" {
		s.m.clusterPeerLost++
		reason = fmt.Sprintf("peer %q lost (no announce within %s)", peer, s.cfg.OfflineAfter)
	}
	s.reclaimLocked(b, reason, true)
	s.exit.redrain = true
}

// settleLocked is the one terminal transition. A pipeline that reported
// nil succeeded (only finish settles a running build); anything else
// that ends a build its owner asked to cancel is an abort; the rest are
// failures. It records the result, disarms the build's watchdog, logs the
// finished record and ends the build (endLocked). Whatever the build held
// must have been released already.
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
	s.logStore(fin)
	b.mu.Unlock()
	b.watchFor(watchNone, nil)
	if s.ownerActive[b.Owner]--; s.ownerActive[b.Owner] <= 0 {
		delete(s.ownerActive, b.Owner)
	}
	s.endLocked(b)
}

// endLocked marks terminal build b's status to republish and then its feed
// to close at the section's exit, after the record behind them is written
// (a stream's clean end is how a follower learns the build settled), and
// schedules its retention. Settling and recovering a terminal build end it.
func (s *Server) endLocked(b *Build) {
	s.touchBuildLocked(b)
	s.exit.closing = append(s.exit.closing, b.ID)
	s.scheduleRetention(b)
}
