package core

import (
	"context"
	"errors"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// ownerName names the platform-owned admin user that submits in-process
// runs and campaigns.
const ownerName = "platform"

// StartExperimentSpec submits a wire spec to the platform's access
// server as the platform's own admin user: StartExperiment through the
// in-process port. Wait drives a Virtual platform clock.
func (p *Platform) StartExperimentSpec(ctx context.Context, ws api.ExperimentSpec, obs ...Observer) (*Experiment, error) {
	return StartExperiment(ctx, p.port(), ws, obs...)
}

// StartCampaignSpec submits a wire campaign to the platform's access
// server as the platform's own admin user: StartCampaign through the
// in-process port. Wait drives a Virtual platform clock.
func (p *Platform) StartCampaignSpec(ctx context.Context, spec api.CampaignSpec, obs ...Observer) (*CampaignSession, error) {
	return StartCampaign(ctx, p.port(), spec, obs...)
}

// port returns an in-process adapter of Port for one submission.
func (p *Platform) port() *localPort {
	return &localPort{p: p, builds: make(map[int]*accessserver.Build)}
}

// localPort is the in-process adapter of Port: the platform's own
// access server, which it submits to as the platform's admin user. It
// reads a build's feed and workspace from the build itself, and its
// status as a v1 client does, published (Server.BuildStatus): it
// marshals nothing and never takes the scheduler lock to read.
type localPort struct {
	p *Platform
	// builds holds what Submit or SubmitCampaign queued, written before
	// any handle reads it; the other calls take only those builds.
	builds map[int]*accessserver.Build
}

// submitter is the user runs are submitted as, once ctx is known to be
// live.
func (lp *localPort) submitter(ctx context.Context) (*accessserver.User, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return lp.p.owner()
}

func (lp *localPort) Submit(ctx context.Context, spec api.ExperimentSpec) (int, error) {
	owner, err := lp.submitter(ctx)
	if err != nil {
		return 0, err
	}
	b, err := lp.p.Access.SubmitSpec(owner, spec)
	if err != nil {
		return 0, err
	}
	lp.builds[b.ID] = b
	return b.ID, nil
}

func (lp *localPort) SubmitCampaign(ctx context.Context, spec api.CampaignSpec) (int, []int, error) {
	owner, err := lp.submitter(ctx)
	if err != nil {
		return 0, nil, err
	}
	id, builds, err := lp.p.Access.SubmitCampaign(owner, spec)
	if err != nil {
		return 0, nil, err
	}
	ids := make([]int, len(builds))
	for i, b := range builds {
		ids[i] = b.ID
		lp.builds[b.ID] = b
	}
	return id, ids, nil
}

// Follow reads the build's feed in process, each batch's samples before
// its events.
func (lp *localPort) Follow(ctx context.Context, build int, event func(api.BuildEvent), sample func(api.SamplePoint)) error {
	return lp.builds[build].Feed().Follow(ctx, 0, 0, func(evs []api.BuildEvent, pts []api.SamplePoint) error {
		for _, pt := range pts {
			sample(pt)
		}
		for _, ev := range evs {
			event(ev)
		}
		return nil
	})
}

func (lp *localPort) BuildStatus(_ context.Context, build int) (api.BuildStatus, error) {
	return lp.p.Access.BuildStatus(build)
}

func (lp *localPort) Artifact(_ context.Context, build int, name string) ([]byte, error) {
	return lp.builds[build].Workspace().Load(name)
}

func (lp *localPort) Abort(_ context.Context, build int) error {
	owner, err := lp.p.owner()
	if err != nil {
		return err
	}
	err = lp.p.Access.Abort(owner, build)
	if errors.Is(err, accessserver.ErrConflict) {
		return nil // settled already
	}
	return err
}

// Drive drives a Virtual platform clock itself until settled reports
// true; a real one it Awaits. When ctx ends first, or the clock stalls,
// it cancels (cancel) and drives the teardown, returning that error;
// when even the teardown cannot settle, it returns without done closed.
func (lp *localPort) Drive(ctx context.Context, settled func() bool, done <-chan struct{}, cancel func()) error {
	v, virtual := lp.p.clock.(*simclock.Virtual)
	if !virtual {
		return Await(ctx, done, cancel)
	}
	err := drive(ctx, v, settled)
	if err != nil {
		cancel()
		// Aborts settle queued builds at once and tear running ones down
		// on this goroutine; drive finishes any teardown that still waits
		// on the clock.
		if err := drive(context.Background(), v, settled); err != nil {
			return err
		}
	}
	<-done
	return err
}

// Await is Drive for a port whose builds run on a clock the client does
// not drive: it waits for done, and when ctx ends first it cancels, waits
// for the teardown and returns ctx's error.
func Await(ctx context.Context, done <-chan struct{}, cancel func()) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		cancel()
		<-done
		return ctx.Err()
	}
}
