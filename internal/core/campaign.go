package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// This file is how an in-process caller runs a measurement. A platform
// has one run path, its access server (§3.1): a run is a wire spec
// submitted to the platform's own server, so it queues until its
// vantage point is free and is readable over the v1 API like one POSTed
// there, and a campaign is a wire campaign submitted the same way. The
// handle of one run follows its build's feed and decodes its result
// from the build's workspace; a campaign holds one such handle per
// member build.

// ownerName names the platform-owned admin user that submits in-process
// runs and campaigns.
const ownerName = "platform"

// CampaignRun is one experiment's outcome within a campaign.
type CampaignRun struct {
	// Index is the experiment's position in the campaign spec.
	Index int
	// Build is the access-server build that ran it.
	Build int
	// Node and Device identify the run as the spec named it.
	Node   string
	Device string
	// Result is the measurement (nil when Err is set).
	Result *Result
	// Err is the per-run failure: setup, workload, node loss or
	// cancellation. One run failing never aborts its siblings.
	Err error
	// Started and Finished are the platform-clock instants the build was
	// dispatched and settled (Started is zero for a run canceled while
	// queued).
	Started  time.Time
	Finished time.Time
}

// Experiment is a handle to one measurement run as a build on the
// platform's own access server. It is safe for concurrent use.
type Experiment struct {
	platform *Platform
	owner    *accessserver.User
	build    *accessserver.Build

	// run is written by the follower before done closes.
	run  CampaignRun
	done chan struct{}

	mu    sync.Mutex
	phase Phase
}

// StartExperimentSpec submits a wire spec to the platform's access
// server as the platform's own admin user and returns a handle on its
// build at once. A spec that does not compile fails here, typed, and
// queues nothing; every later failure (setup, workload, node loss)
// surfaces through Wait. The run queues until its vantage point is free:
// one Monsoon measures one run at a time. Observers receive the run's
// phase events and live samples from its build feed. Cancelling ctx
// cancels the run.
func (p *Platform) StartExperimentSpec(ctx context.Context, ws api.ExperimentSpec, obs ...Observer) (*Experiment, error) {
	owner, err := p.submitter(ctx)
	if err != nil {
		return nil, err
	}
	b, err := p.Access.SubmitSpec(owner, ws)
	if err != nil {
		return nil, err
	}
	e := p.follow(owner, b, 0, ws, obs)
	p.watch(ctx, e.done, e.Cancel)
	return e, nil
}

// submitter is the user in-process runs are submitted as, once ctx is
// known to be live.
func (p *Platform) submitter(ctx context.Context) (*accessserver.User, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p.owner()
}

// watch cancels a handle when ctx ends before done closes. Real clock
// only: under a Virtual clock all progress happens inside Wait's drive
// loop, which observes ctx itself — an async cancel would tear a run
// down concurrently with timer callbacks and break the single-driver
// determinism model.
func (p *Platform) watch(ctx context.Context, done <-chan struct{}, cancel func()) {
	if _, virtual := p.clock.(*simclock.Virtual); virtual || ctx == nil || ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			cancel()
		case <-done:
		}
	}()
}

// follow returns the handle of a submitted build, the i-th of its
// campaign, and starts its follower: a goroutine that delivers the
// build's feed to obs until the feed closes, which it does once the
// build's terminal status is published, then reads the run from that
// status, delivers the terminal PhaseDone and closes done.
func (p *Platform) follow(owner *accessserver.User, b *accessserver.Build, i int, ws api.ExperimentSpec, obs []Observer) *Experiment {
	e := &Experiment{platform: p, owner: owner, build: b, done: make(chan struct{})}
	go func() {
		posted := e.deliver(ws.Node, ws.Device, obs)
		var last PhaseChange
		e.run, last = RunOf(i, ws, b.Status(), posted, b.Workspace().Load)
		e.setPhase(PhaseDone)
		for _, o := range obs {
			o.OnPhase(last)
		}
		close(e.done)
	}()
	return e
}

// deliver hands the build's feed to obs in order, up to its closing,
// and returns the terminal PhaseDone it held back (nil when the feed
// posted none).
func (e *Experiment) deliver(node, device string, obs []Observer) *PhaseChange {
	feed := e.build.Feed()
	var nEvents, nSamples int
	var last *PhaseChange
	for {
		// The samples read comes first: if it finds the feed closed,
		// the events read after it finds every event too.
		pts, closed, changed := feed.SamplesSince(nSamples)
		evs, _, _ := feed.EventsSince(nEvents)
		nSamples += len(pts)
		nEvents += len(evs)
		for _, pt := range pts {
			smp := SampleOf(node, device, pt)
			for _, o := range obs {
				o.OnSample(smp)
			}
		}
		for _, ev := range evs {
			c, ok := PhaseChangeOf(ev)
			switch {
			case !ok:
			case c.Phase == PhaseDone:
				last = &c
			default:
				e.setPhase(c.Phase)
				for _, o := range obs {
					o.OnPhase(c)
				}
			}
		}
		if closed {
			return last
		}
		<-changed
	}
}

// RunOf reads a settled build's run from its wire status: the one
// reading of a build that an in-process Experiment (from its build's
// Status) and a remote session (from the status it fetched once the
// build's streams ended) share, so both handles report a run alike. i
// and ws are the run's position and spec in its campaign; load fetches
// one of the build's artifacts, from the workspace in-process and over
// HTTP remotely. posted is the terminal PhaseDone the build's feed
// carried, if any; RunOf returns it, or, for a build whose feed posted
// none (a run canceled while queued), one stamped with the instant the
// build settled and carrying the run's error.
func RunOf(i int, ws api.ExperimentSpec, st api.BuildStatus, posted *PhaseChange, load func(string) ([]byte, error)) (CampaignRun, PhaseChange) {
	run := CampaignRun{
		Index: i, Build: st.ID,
		Node: ws.Node, Device: ws.Device,
		Started:  instant(st.StartedAtNS),
		Finished: instant(st.FinishedAtNS),
	}
	switch {
	case st.State == accessserver.StateSuccess.String():
		run.Result, run.Err = DecodeResult(load, st.Summary)
	case st.State == accessserver.StateAborted.String():
		run.Err = fmt.Errorf("%w: build %d aborted", ErrCanceled, st.ID)
	case st.State == api.StateExpired:
		run.Err = fmt.Errorf("core: build %d expired from the server's retention window", st.ID)
	case st.Canceled:
		// The structured markers, never inferred from the message text,
		// which the wire contract does not promise.
		run.Err = fmt.Errorf("%w: build %d: %s", ErrCanceled, st.ID, st.Error)
	case st.NodeLost:
		// The scheduler spent its failover budget on dead vantage points.
		run.Err = fmt.Errorf("%w: build %d: %s", ErrNodeLost, st.ID, st.Error)
	default:
		run.Err = fmt.Errorf("core: build %d failed: %s", st.ID, st.Error)
	}
	if posted != nil {
		return run, *posted
	}
	return run, PhaseChange{
		Node: ws.Node, Device: ws.Device,
		Phase: PhaseDone, At: run.Finished, Err: run.Err,
	}
}

// instant converts a record's UnixNano stamp, 0 meaning never.
func instant(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// setPhase advances the handle's phase monotonically.
func (e *Experiment) setPhase(p Phase) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.phase = max(e.phase, p)
}

// Phase reports the latest phase the follower has delivered; PhaseDone
// once Done is closed.
func (e *Experiment) Phase() Phase {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.phase
}

// Build reports the access-server build that runs the experiment.
func (e *Experiment) Build() int { return e.build.ID }

// Done returns a channel closed when the run has finished and its
// outcome is read.
func (e *Experiment) Done() <-chan struct{} { return e.done }

// Cancel aborts the run: a queued one ends with ErrCanceled at once, a
// running one is torn down in reverse setup order (monitor, mirroring,
// VPN) through its build's cancel hook. Idempotent, safe from any
// goroutine — an observer callback included — and a no-op once the run
// has settled.
func (e *Experiment) Cancel() {
	// A build that settled already answers ErrConflict (or ErrExpired):
	// there is nothing left to cancel.
	_ = e.platform.Access.Abort(e.owner, e.build.ID)
}

// settled reports whether the build is terminal — drive's finished for
// Wait, asked between instants.
func (e *Experiment) settled() bool { return e.build.State().Terminal() }

// Wait blocks until the run has finished and returns its outcome. On a
// Virtual platform clock it drives simulated time itself until the
// build is terminal; concurrent Waits take turns on the clock.
// Cancelling ctx cancels the run, waits for its teardown and returns
// the canceled outcome.
func (e *Experiment) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	err := e.platform.await(ctx, e.settled, e.done, e.Cancel)
	if err != nil && (ctx.Err() == nil || !isClosed(e.done)()) {
		return nil, err // the clock stalled
	}
	return e.run.Result, e.run.Err
}

// await blocks until settled reports true and done has closed, driving
// a Virtual platform clock itself. When ctx ends first, or the clock
// stalls, it cancels (cancel) and waits for the teardown, returning
// that error; when even the teardown cannot settle, it returns without
// done closed.
func (p *Platform) await(ctx context.Context, settled func() bool, done <-chan struct{}, cancel func()) error {
	var err error
	v, virtual := p.clock.(*simclock.Virtual)
	if virtual {
		err = drive(ctx, v, settled)
	} else {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		cancel()
		if virtual {
			// Aborts settle queued builds at once and tear running ones
			// down on this goroutine; drive finishes any teardown that
			// still waits on the clock.
			if err := drive(context.Background(), v, settled); err != nil {
				return err
			}
		}
	}
	<-done
	return err
}

// CampaignSession is a handle to an in-process campaign: one Experiment
// per member build the platform's access server queued for it,
// index-aligned with the spec.
type CampaignSession struct {
	// ID is the campaign's id on the platform's access server.
	ID int

	platform *Platform
	members  []*Experiment
	done     chan struct{}
}

// StartCampaignSpec submits a wire campaign to the platform's access
// server as the platform's own admin user and returns a handle over its
// member builds. A spec that does not compile fails here, typed, and
// queues nothing. Runs spread across vantage points and queue per node,
// whose one Monsoon measures one run at a time. Observers receive each
// member's phase events and live samples from its build feed, on each
// member's follower goroutine. Cancelling ctx cancels the campaign.
func (p *Platform) StartCampaignSpec(ctx context.Context, spec api.CampaignSpec, obs ...Observer) (*CampaignSession, error) {
	owner, err := p.submitter(ctx)
	if err != nil {
		return nil, err
	}
	id, builds, err := p.Access.SubmitCampaign(owner, spec)
	if err != nil {
		return nil, err
	}
	cs := &CampaignSession{ID: id, platform: p, done: make(chan struct{})}
	for i, b := range builds {
		cs.members = append(cs.members, p.follow(owner, b, i, spec.Experiments[i], obs))
	}
	go func() {
		for _, m := range cs.members {
			<-m.done
		}
		close(cs.done)
	}()
	p.watch(ctx, cs.done, cs.Cancel)
	return cs, nil
}

// Done returns a channel closed when every run has finished and its
// outcome is read.
func (cs *CampaignSession) Done() <-chan struct{} { return cs.done }

// Cancel aborts every member that has not settled. Members go last to
// first, so queued ones leave the queue before the running ones ahead
// of them free their nodes. Idempotent.
func (cs *CampaignSession) Cancel() {
	for i := len(cs.members) - 1; i >= 0; i-- {
		cs.members[i].Cancel()
	}
}

// settled reports whether every member build is terminal.
func (cs *CampaignSession) settled() bool {
	for _, m := range cs.members {
		if !m.settled() {
			return false
		}
	}
	return true
}

// Wait blocks until every run has finished and returns the outcomes in
// spec order. On a Virtual platform clock it drives simulated time
// itself until every member build is terminal. Per-run failures live
// in the returned runs; the error return is campaign-level only.
// Cancelling ctx cancels the campaign, waits for its teardown and
// returns ctx's error.
func (cs *CampaignSession) Wait(ctx context.Context) ([]CampaignRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	err := cs.platform.await(ctx, cs.settled, cs.done, cs.Cancel)
	if !isClosed(cs.done)() {
		return nil, err // a member that cannot settle: no outcomes
	}
	runs := make([]CampaignRun, len(cs.members))
	for i, m := range cs.members {
		runs[i] = m.run
	}
	return runs, err
}
