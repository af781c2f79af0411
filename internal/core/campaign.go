package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/simclock"
)

// Campaign is a batch of experiments run under one scheduling policy —
// the first-class abstraction for large measurement sweeps (many
// devices × many KPIs) that a shared platform serves, instead of a
// for-loop around a blocking call.
type Campaign struct {
	// Specs are the runs, dispatched FIFO per vantage point.
	Specs []ExperimentSpec
	// MaxConcurrent caps how many experiments run at once across the
	// whole campaign (0 = no cap beyond the hardware bound). Runs on the
	// same vantage point are always serialized: one Monsoon powers one
	// device at a time, so a node's monitor is exclusive.
	MaxConcurrent int
	// Budget bounds how much simulated time Wait may drive before giving
	// up on a stuck campaign. Zero selects a default that adapts to the
	// dispatched runs (48 h, extended past any run's scripted window); an
	// explicit Budget is a hard bound.
	Budget time.Duration
}

// CampaignRun is one spec's outcome within a campaign.
type CampaignRun struct {
	// Index is the spec's position in Campaign.Specs.
	Index int
	// Spec is the run as submitted.
	Spec ExperimentSpec
	// Result is the measurement (nil when Err is set).
	Result *Result
	// Err is the per-run failure: validation, setup, workload or
	// cancellation. One run failing never aborts its siblings.
	Err error
	// Started and Finished are platform-clock instants (Started is zero
	// when the run failed before dispatch or was canceled while queued).
	Started  time.Time
	Finished time.Time
}

// CampaignSession is a handle to an in-flight campaign.
type CampaignSession struct {
	platform  *Platform
	clock     simclock.Clock
	campaign  Campaign
	observers []Observer
	ctx       context.Context

	done chan struct{}

	mu            sync.Mutex
	pending       []int
	busy          map[string]bool // vantage point -> measuring
	running       int
	sessions      map[int]*Session
	runs          []CampaignRun
	outstanding   int
	canceled      bool
	cancelCause   error
	deadline      time.Time
	defaultBudget bool
}

// RunCampaign submits the campaign and blocks until every run has
// finished (or the campaign is canceled), returning the aggregated
// per-run outcomes in spec order. Under the virtual clock the scheduler
// is deterministic: the same seed and specs produce identical results,
// and runs on distinct vantage points execute concurrently in simulated
// time while each node's runs stay serialized.
func (p *Platform) RunCampaign(ctx context.Context, c Campaign, obs ...Observer) ([]CampaignRun, error) {
	cs, err := p.StartCampaign(ctx, c, obs...)
	if err != nil {
		return nil, err
	}
	return cs.Wait(ctx)
}

// StartCampaign validates the batch shape and begins dispatching,
// returning a handle immediately. Individual spec failures (unknown
// node, bad workload, …) are recorded per run, not returned here.
func (p *Platform) StartCampaign(ctx context.Context, c Campaign, obs ...Observer) (*CampaignSession, error) {
	if len(c.Specs) == 0 {
		return nil, errors.New("core: campaign has no specs")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defaultBudget := c.Budget == 0
	if defaultBudget {
		c.Budget = 48 * time.Hour
	}
	cs := &CampaignSession{
		platform:      p,
		clock:         p.clock,
		campaign:      c,
		observers:     obs,
		ctx:           ctx,
		done:          make(chan struct{}),
		busy:          make(map[string]bool),
		sessions:      make(map[int]*Session),
		runs:          make([]CampaignRun, len(c.Specs)),
		outstanding:   len(c.Specs),
		deadline:      p.clock.Now().Add(c.Budget),
		defaultBudget: defaultBudget,
	}
	for i, spec := range c.Specs {
		cs.pending = append(cs.pending, i)
		cs.runs[i] = CampaignRun{Index: i, Spec: spec}
	}
	cs.schedule()
	// Real clock only, for the same reason as Platform.start: under a
	// Virtual clock Wait's drive loop observes ctx itself, and an async
	// watcher would race the driving goroutine.
	if _, virtual := p.clock.(*simclock.Virtual); !virtual && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cs.cancelWith(context.Cause(ctx))
			case <-cs.done:
			}
		}()
	}
	return cs, nil
}

// Done returns a channel closed when every run has finished.
func (cs *CampaignSession) Done() <-chan struct{} { return cs.done }

// Runs returns a snapshot of the per-run outcomes in spec order.
func (cs *CampaignSession) Runs() []CampaignRun {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]CampaignRun{}, cs.runs...)
}

// Cancel stops the campaign: queued runs are failed with ErrCanceled and
// in-flight sessions are canceled (their teardown completes before the
// campaign's Done closes). Idempotent.
func (cs *CampaignSession) Cancel() { cs.cancelWith(nil) }

func (cs *CampaignSession) cancelWith(cause error) {
	cs.mu.Lock()
	if cs.canceled {
		cs.mu.Unlock()
		return
	}
	cs.canceled = true
	cs.cancelCause = cause
	pending := cs.pending
	cs.pending = nil
	sessions := make([]*Session, 0, len(cs.sessions))
	for _, s := range cs.sessions {
		sessions = append(sessions, s)
	}
	cs.mu.Unlock()

	err := ErrCanceled
	if cause != nil {
		err = fmt.Errorf("%w: %v", ErrCanceled, cause)
	}
	for _, i := range pending {
		cs.record(i, nil, err, false)
	}
	for _, s := range sessions {
		s.Cancel()
	}
}

// Wait blocks until the campaign completes and returns the aggregated
// outcomes. Per-run failures live in the returned runs; the error return
// is campaign-level only (context cancellation or a blown time budget).
func (cs *CampaignSession) Wait(ctx context.Context) ([]CampaignRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, ok := cs.clock.(*simclock.Virtual)
	if !ok {
		select {
		case <-cs.done:
			return cs.Runs(), nil
		case <-ctx.Done():
			cs.cancelWith(context.Cause(ctx))
			<-cs.done
			return cs.Runs(), ctx.Err()
		}
	}
	err := drive(ctx, v, cs.done, cs.deadlineAt)
	if err != nil {
		if ctx.Err() != nil {
			cs.cancelWith(context.Cause(ctx))
			<-cs.done
			return cs.Runs(), ctx.Err()
		}
		// Budget blown or clock stalled: cancel so in-flight sessions
		// release their hardware, queued runs get an outcome and Done
		// closes (also unblocking the ctx-watcher goroutine).
		cs.cancelWith(err)
		<-cs.done
		return cs.Runs(), err
	}
	return cs.Runs(), nil
}

func (cs *CampaignSession) deadlineAt() time.Time {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.deadline
}

// schedule dispatches every runnable spec: lowest pending index first,
// skipping specs whose vantage point is measuring, stopping at the
// concurrency cap. It is called at submission and from every run's
// completion, so the campaign is fully event-driven — under the virtual
// clock all dispatch decisions happen at deterministic instants.
func (cs *CampaignSession) schedule() {
	for {
		cs.mu.Lock()
		if cs.canceled {
			cs.mu.Unlock()
			return
		}
		pick := -1
		for qi, i := range cs.pending {
			if cs.campaign.MaxConcurrent > 0 && cs.running >= cs.campaign.MaxConcurrent {
				break
			}
			node := cs.campaign.Specs[i].Node
			if cs.busy[node] {
				continue
			}
			pick = i
			cs.pending = append(cs.pending[:qi], cs.pending[qi+1:]...)
			cs.busy[node] = true
			cs.running++
			break
		}
		cs.mu.Unlock()
		if pick < 0 {
			return
		}

		i := pick
		spec := cs.campaign.Specs[i]
		started := cs.clock.Now()
		sess, err := cs.platform.start(cs.ctx, spec, cs.observers, func(res *Result, err error) {
			cs.record(i, res, err, true)
			cs.schedule()
		})
		if err != nil {
			// A dispatch that lost the race against context cancellation
			// records the same canceled shape as queued runs do.
			if cs.ctx.Err() != nil {
				err = fmt.Errorf("%w: %v", ErrCanceled, context.Cause(cs.ctx))
			}
			cs.record(i, nil, err, true)
			continue
		}
		cs.mu.Lock()
		cs.sessions[i] = sess
		cs.runs[i].Started = started
		// Only the default budget adapts to long runs; an explicit
		// Budget is a hard bound the user asked for.
		if dl := started.Add(sess.Scripted()*2 + time.Minute); cs.defaultBudget && dl.After(cs.deadline) {
			cs.deadline = dl
		}
		canceled := cs.canceled
		cs.mu.Unlock()
		if canceled {
			// Cancel raced the dispatch; fold this session in.
			sess.Cancel()
		}
	}
}

// record stores one run's outcome; dispatched runs also release their
// vantage point. The campaign completes when the last outcome lands.
func (cs *CampaignSession) record(i int, res *Result, err error, dispatched bool) {
	cs.mu.Lock()
	if dispatched {
		cs.busy[cs.campaign.Specs[i].Node] = false
		cs.running--
		delete(cs.sessions, i)
	}
	cs.runs[i].Result = res
	cs.runs[i].Err = err
	cs.runs[i].Finished = cs.clock.Now()
	cs.outstanding--
	doneNow := cs.outstanding == 0
	cs.mu.Unlock()
	if doneNow {
		close(cs.done)
	}
}
