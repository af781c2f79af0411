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

// This file is the one client of a build, in process and over HTTP
// alike. A run is a wire spec submitted through a Port — the platform's
// own access server (§3.1) or a remote one — so it queues until its
// vantage point is free and is readable over the v1 API like one POSTed
// there, and a campaign is a wire campaign submitted the same way. The
// handle of one run follows its build's feed through the port and reads
// its run from the build's settled wire status; a campaign holds one
// such handle per member build.

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

// Port is what a run handle needs of the access server its builds run
// on. It has two adapters: the platform's own server in process
// (localPort, behind Platform.StartExperimentSpec) and a remote one over
// HTTP (behind remote's Platform.StartExperiment).
type Port interface {
	// Submit queues one run and returns its build.
	Submit(ctx context.Context, spec api.ExperimentSpec) (build int, err error)
	// SubmitCampaign queues a campaign and returns its id and its
	// builds, index-aligned with spec.Experiments.
	SubmitCampaign(ctx context.Context, spec api.CampaignSpec) (id int, builds []int, err error)
	// Follow hands the build's feed to event and sample, each stream in
	// order (the two may run concurrently), until the feed closes, which
	// it does once the build's terminal status is published; then it
	// returns nil. Any other end is an error: records were lost.
	Follow(ctx context.Context, build int, event func(api.BuildEvent), sample func(api.SamplePoint)) error
	// BuildStatus reads the build's wire status.
	BuildStatus(ctx context.Context, build int) (api.BuildStatus, error)
	// Artifact reads one of the build's workspace artifacts.
	Artifact(ctx context.Context, build int, name string) ([]byte, error)
	// Abort cancels the build. A build that has settled or expired is not
	// an error: there is nothing left to cancel.
	Abort(ctx context.Context, build int) error
	// Drive blocks until settled reports true and done has closed: the
	// in-process port on a Virtual clock drives simulated time itself,
	// asking settled between instants, and any other port Awaits. When
	// ctx ends first it cancels (cancel), waits for the teardown and
	// returns ctx's error; any other error means done may not have closed.
	Drive(ctx context.Context, settled func() bool, done <-chan struct{}, cancel func()) error
}

// Experiment is a handle to one measurement run as a build, in process
// or on a remote access server. It is safe for concurrent use.
type Experiment struct {
	port  Port
	index int // the run's position in its campaign
	spec  api.ExperimentSpec
	build int
	obs   []Observer

	// run is written by the follower before done closes.
	run  CampaignRun
	done chan struct{}

	mu     sync.Mutex
	phase  Phase
	posted *PhaseChange // the feed's terminal PhaseDone, held back
}

// StartExperiment submits a wire spec through port and returns a handle
// on its build at once. A spec that does not compile fails here, typed,
// and queues nothing; every later failure (setup, workload, node loss)
// surfaces through Wait. The run queues until its vantage point is free:
// one Monsoon measures one run at a time. Observers receive the run's
// phase events and live samples from its build feed. Cancelling ctx
// cancels the run.
func StartExperiment(ctx context.Context, port Port, spec api.ExperimentSpec, obs ...Observer) (*Experiment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	build, err := port.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	e := follow(port, build, 0, spec, obs)
	watch(ctx, port, e.done, e.Cancel)
	return e, nil
}

// watch cancels a handle when ctx ends before done closes. The
// in-process port on a Virtual clock is the exception: there all
// progress happens inside Wait's Drive, which observes ctx itself — an
// async cancel would tear a run down concurrently with timer callbacks
// and break the single-driver determinism model.
func watch(ctx context.Context, port Port, done <-chan struct{}, cancel func()) {
	if lp, ok := port.(*localPort); ok {
		if _, virtual := lp.p.clock.(*simclock.Virtual); virtual {
			return
		}
	}
	if ctx.Done() == nil {
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
// campaign, and starts its follower: a goroutine that hands the build's
// feed to obs until the feed closes, then reads the run (finalize) and
// closes done. The follow has a context of its own: it outlasts the
// submit ctx's happy path and ends when the build does, and the submit
// ctx cancels the build instead (watch).
func follow(port Port, build, i int, spec api.ExperimentSpec, obs []Observer) *Experiment {
	e := &Experiment{port: port, index: i, spec: spec, build: build, obs: obs, done: make(chan struct{})}
	go func() {
		ctx := context.Background()
		e.finalize(ctx, port.Follow(ctx, build, e.onEvent, e.onSample))
		close(e.done)
	}()
	return e
}

// onEvent hands one feed event to the observers as the PhaseChange it
// carries. The terminal PhaseDone is held back: finalize delivers it
// once the samples have drained too.
func (e *Experiment) onEvent(ev api.BuildEvent) {
	c, ok := phaseChangeOf(ev)
	switch {
	case !ok: // a failover transition, or a newer server's phase
	case c.Phase == PhaseDone:
		e.mu.Lock()
		e.posted = &c
		e.mu.Unlock()
	default:
		e.setPhase(c.Phase)
		for _, o := range e.obs {
			o.OnPhase(c)
		}
	}
}

// onSample hands one feed point to the observers as a Sample.
func (e *Experiment) onSample(pt api.SamplePoint) {
	smp := sampleOf(e.spec.Node, e.spec.Device, pt)
	for _, o := range e.obs {
		o.OnSample(smp)
	}
}

// finalize reads the run once its follow has ended, err saying how. A
// closed feed means the build's terminal status is published: one
// status read gives the run (runOf), a success's result decoded from
// the artifacts the port reads. A follow that ended broken, or a status
// that cannot be read, fails the run with that error, and its PhaseDone
// carries no instant: the observers missed records. The terminal
// PhaseDone goes out last.
func (e *Experiment) finalize(ctx context.Context, err error) {
	var st api.BuildStatus
	if err == nil {
		st, err = e.port.BuildStatus(ctx, e.build)
	}
	if err == nil && !st.Terminal() {
		err = fmt.Errorf("core: build %d still %s after its feed closed", e.build, st.State)
	}
	var last PhaseChange
	if err == nil {
		// The follow has ended, so onEvent no longer writes posted.
		e.run, last = runOf(e.index, e.spec, st, e.posted, func(name string) ([]byte, error) {
			return e.port.Artifact(ctx, e.build, name)
		})
	} else {
		e.run = CampaignRun{Index: e.index, Build: e.build, Node: e.spec.Node, Device: e.spec.Device, Err: err}
		last = PhaseChange{Node: e.spec.Node, Device: e.spec.Device, Phase: PhaseDone, Err: err}
	}
	e.setPhase(PhaseDone)
	for _, o := range e.obs {
		o.OnPhase(last)
	}
}

// runOf reads a settled build's run from its wire status, the one
// reading of a build, in process and over HTTP. i and ws are the run's
// position and spec in its campaign; load fetches one of the build's
// artifacts. posted is the terminal PhaseDone the build's feed carried,
// if any; runOf returns it, or, for a build whose feed posted none (a
// run canceled while queued), one stamped with the instant the build
// settled and carrying the run's error.
func runOf(i int, ws api.ExperimentSpec, st api.BuildStatus, posted *PhaseChange, load func(string) ([]byte, error)) (CampaignRun, PhaseChange) {
	run := CampaignRun{
		Index: i, Build: st.ID,
		Node: ws.Node, Device: ws.Device,
		Started:  instant(st.StartedAtNS),
		Finished: instant(st.FinishedAtNS),
	}
	switch {
	case st.State == accessserver.StateSuccess.String():
		run.Result, run.Err = decodeResult(load, st)
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
func (e *Experiment) Build() int { return e.build }

// Done returns a channel closed when the run has finished and its
// outcome is read. Every accepted sample and phase event reaches the
// observers before it closes, the terminal PhaseDone last.
func (e *Experiment) Done() <-chan struct{} { return e.done }

// Cancel aborts the run: a queued one ends with ErrCanceled at once, a
// running one is torn down in reverse setup order (monitor, mirroring,
// VPN) through its build's cancel hook. Idempotent, safe from any
// goroutine — an observer callback included — and a no-op once the run
// has settled. Until then every call asks the port again, so a cancel
// lost to a transient failure is not the last word.
func (e *Experiment) Cancel() {
	if isClosed(e.done)() {
		return
	}
	_ = e.port.Abort(context.Background(), e.build)
}

// settled reports whether the build is terminal, as Drive asks it
// between instants. A build the port can no longer read cannot move.
func (e *Experiment) settled() bool {
	st, err := e.port.BuildStatus(context.Background(), e.build)
	return err != nil || st.Terminal()
}

// Wait blocks until the run has finished and returns its outcome. On an
// in-process Virtual platform clock it drives simulated time itself
// until the build is terminal; concurrent Waits take turns on the clock.
// Cancelling ctx cancels the run, waits for its teardown and returns
// the canceled outcome.
func (e *Experiment) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	err := e.port.Drive(ctx, e.settled, e.done, e.Cancel)
	if err != nil && (ctx.Err() == nil || !isClosed(e.done)()) {
		return nil, err // the clock stalled
	}
	return e.run.Result, e.run.Err
}

// CampaignSession is a handle to a campaign: one Experiment per member
// build, index-aligned with the spec.
type CampaignSession struct {
	// ID is the campaign's id on its access server.
	ID int

	port    Port
	members []*Experiment
	done    chan struct{}
}

// StartCampaign submits a wire campaign through port and returns a
// handle over its member builds. A spec that does not compile fails
// here, typed, and queues nothing. Runs spread across vantage points and
// queue per node, whose one Monsoon measures one run at a time.
// Observers receive each member's phase events and live samples from
// its build feed, on each member's follower goroutine. Cancelling ctx
// cancels the campaign.
func StartCampaign(ctx context.Context, port Port, spec api.CampaignSpec, obs ...Observer) (*CampaignSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id, builds, err := port.SubmitCampaign(ctx, spec)
	if err != nil {
		return nil, err
	}
	cs := &CampaignSession{ID: id, port: port, done: make(chan struct{})}
	for i, b := range builds {
		cs.members = append(cs.members, follow(port, b, i, spec.Experiments[i], obs))
	}
	go func() {
		for _, m := range cs.members {
			<-m.done
		}
		close(cs.done)
	}()
	watch(ctx, port, cs.done, cs.Cancel)
	return cs, nil
}

// Done returns a channel closed when every run has finished and its
// outcome is read.
func (cs *CampaignSession) Done() <-chan struct{} { return cs.done }

// Cancel aborts every member that has not settled. Members go last to
// first, so queued ones leave the queue before the running ones ahead
// of them free their nodes: first to last, the server could dispatch
// the next member between two aborts — a device setup for a run nobody
// wants. Idempotent.
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
// spec order. On an in-process Virtual platform clock it drives
// simulated time itself until every member build is terminal. Per-run
// failures live in the returned runs; the error return is
// campaign-level only. Cancelling ctx cancels the campaign, waits for
// its teardown and returns ctx's error.
func (cs *CampaignSession) Wait(ctx context.Context) ([]CampaignRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	err := cs.port.Drive(ctx, cs.settled, cs.done, cs.Cancel)
	if !isClosed(cs.done)() {
		return nil, err // a member that cannot settle: no outcomes
	}
	runs := make([]CampaignRun, len(cs.members))
	for i, m := range cs.members {
		runs[i] = m.run
	}
	return runs, err
}
