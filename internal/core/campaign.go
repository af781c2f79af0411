package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// This file runs a campaign in-process. A platform has one campaign
// scheduler, its access server (§3.1): an in-process campaign is a wire
// campaign submitted to the platform's own server, so it queues, waits
// for free vantage points and is readable at GET /api/v1/campaigns/{id}
// like one POSTed there. The handle follows each member build's feed
// and decodes each run's result from the build's workspace.

// campaignOwner names the platform-owned admin user that submits
// in-process campaigns.
const campaignOwner = "platform"

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

// CampaignSession is a handle to an in-process campaign: the member
// builds the platform's access server queued for it, index-aligned
// with the spec.
type CampaignSession struct {
	// ID is the campaign's id on the platform's access server.
	ID int

	platform *Platform
	owner    *accessserver.User
	builds   []*accessserver.Build

	// runs is written by each member's follower before done closes.
	runs []CampaignRun
	done chan struct{}
}

// StartCampaignSpec submits a wire campaign to the platform's access
// server as the platform's own admin user and returns a handle over its
// member builds. A spec that does not compile fails here, typed, and
// queues nothing. Runs spread across vantage points and queue per node,
// whose one Monsoon measures one run at a time. Observers receive each
// member's phase events and live samples from its build feed, on a
// goroutine per member (so callbacks for different members may run
// concurrently). Cancelling ctx cancels the campaign.
func (p *Platform) StartCampaignSpec(ctx context.Context, spec api.CampaignSpec, obs ...Observer) (*CampaignSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	owner, err := p.owner()
	if err != nil {
		return nil, err
	}
	id, builds, err := p.Access.SubmitCampaign(owner, spec)
	if err != nil {
		return nil, err
	}
	cs := &CampaignSession{
		ID:       id,
		platform: p,
		owner:    owner,
		builds:   builds,
		runs:     make([]CampaignRun, len(builds)),
		done:     make(chan struct{}),
	}
	var wg sync.WaitGroup
	for i, b := range builds {
		ws := spec.Experiments[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			follow(b.Feed(), ws.Node, ws.Device, obs)
			cs.runs[i] = outcome(i, b, ws)
		}()
	}
	go func() {
		wg.Wait()
		close(cs.done)
	}()
	// Real clock only, for the same reason as Platform.start: under a
	// Virtual clock Wait's drive loop observes ctx itself.
	if _, virtual := p.clock.(*simclock.Virtual); !virtual && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cs.Cancel()
			case <-cs.done:
			}
		}()
	}
	return cs, nil
}

// follow delivers a member build's feed to obs until the feed closes,
// which it does once the build has settled. Like a session, it delivers
// the terminal PhaseDone last, after every sample.
func follow(feed *feedhub.Feed, node, device string, obs []Observer) {
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
				for _, o := range obs {
					o.OnPhase(c)
				}
			}
		}
		if closed {
			break
		}
		<-changed
	}
	if last != nil {
		for _, o := range obs {
			o.OnPhase(*last)
		}
	}
}

// outcome reads a settled member build's run. The caller has seen the
// build's feed closed, which the server does only after settling it, so
// the build's record is final.
func outcome(i int, b *accessserver.Build, ws api.ExperimentSpec) CampaignRun {
	run := CampaignRun{
		Index: i, Build: b.ID,
		Node: ws.Node, Device: ws.Device,
		Started:  instant(b.StartedAtNS),
		Finished: instant(b.FinishedAtNS),
	}
	switch b.State() {
	case accessserver.StateSuccess:
		run.Result, run.Err = DecodeResult(b.Workspace().Load, b.Summary)
	case accessserver.StateAborted:
		run.Err = fmt.Errorf("%w: build %d aborted", ErrCanceled, b.ID)
	default:
		run.Err = b.Err()
		if errors.Is(run.Err, accessserver.ErrNodeLost) {
			run.Err = fmt.Errorf("%w: %v", ErrNodeLost, run.Err)
		}
	}
	return run
}

// instant converts a record's UnixNano stamp, 0 meaning never.
func instant(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Done returns a channel closed when every run has finished and its
// outcome is read.
func (cs *CampaignSession) Done() <-chan struct{} { return cs.done }

// Cancel aborts every member that has not settled: a queued run ends
// with ErrCanceled at once, a running one is torn down through its
// build's cancel hook. Members go last to first, so queued ones leave
// the queue before the running ones ahead of them free their nodes.
// Idempotent.
func (cs *CampaignSession) Cancel() {
	for i := len(cs.builds) - 1; i >= 0; i-- {
		// A member that settled already answers ErrConflict (or
		// ErrExpired): there is nothing left to cancel.
		_ = cs.platform.Access.Abort(cs.owner, cs.builds[i].ID)
	}
}

// settled reports whether every member build is terminal — drive's
// finished for Wait, asked between instants.
func (cs *CampaignSession) settled() bool {
	for _, b := range cs.builds {
		if !b.State().Terminal() {
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
	var err error
	v, virtual := cs.platform.clock.(*simclock.Virtual)
	if virtual {
		err = drive(ctx, v, cs.settled, nil)
	} else {
		select {
		case <-cs.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		cs.Cancel()
		if virtual {
			// Aborts settle queued members at once and tear running
			// ones down on this goroutine; drive finishes any teardown
			// that still waits on the clock.
			if err := drive(context.Background(), v, cs.settled, nil); err != nil {
				return nil, err // a member that cannot settle: no outcomes
			}
		}
	}
	<-cs.done
	return append([]CampaignRun(nil), cs.runs...), err
}
