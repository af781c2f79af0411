package core

import (
	"bytes"
	"context"
	"fmt"

	"sync/atomic"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
	"batterylab/internal/trace"
)

// This file bridges the experiment runner into the access server's
// build queue — the paper's actual workflow (§3.1): experimenters create
// jobs, an admin approves the pipeline, the queue dispatches when the
// target device is free, and the power-meter logs land in the build's
// workspace. Jobs and direct spec submissions share one pipeline body:
// phase transitions and live samples flow into the build's Feed, where
// the streaming endpoints pick them up, and the finished run leaves a
// wire-level summary on the build.

// Artifact names a measurement build saves into its workspace.
const (
	ArtifactCurrentCSV    = "current.csv"
	ArtifactCurrentTrace  = "current.trace"
	ArtifactDeviceCPU     = "device-cpu.csv"
	ArtifactControllerCPU = "controller-cpu.csv"
)

// measurementJob wraps an ExperimentSpec as an access-server pipeline
// body (what specBackend.Compile returns). The build succeeds when the
// measurement completes; the current trace is stored as "current.csv"
// plus the compact binary
// "current.trace" (trace format v2 — at 5 kHz the CSV is ~3× larger),
// and the CPU traces as "device-cpu.csv" / "controller-cpu.csv" in the
// build workspace. The session's phase events and live samples are
// forwarded to the build's feed, and Session.Cancel is registered as
// the build's cancel hook, so remote clients can stream progress and
// abort mid-run.
func (p *Platform) measurementJob(spec ExperimentSpec) accessserver.RunFunc {
	return func(ctx *accessserver.BuildContext, done func(error)) {
		// Per-attempt copy: the captured spec is shared across dispatch
		// attempts of this RunFunc, and an abandoned attempt may still
		// be reading it while a retry runs.
		spec := spec
		// Fallback placement: the scheduler may have leased this attempt
		// to a different vantage point than the spec named (the original
		// died mid-campaign). The run follows the build context — the
		// spec's node/device are only the preferred placement.
		if name := ctx.Node.Name(); name != spec.Node && ctx.Device != "" {
			ctx.Logf("placed on fallback node %s device %s (spec named %s/%s)",
				name, ctx.Device, spec.Node, spec.Device)
			spec.Node = name
			spec.Device = ctx.Device
		}
		feed := ctx.Build.Feed()
		var obs []Observer
		if feed != nil {
			obs = append(obs, feedObserver{build: ctx.Build.ID, feed: feed})
		}
		var sessRef atomic.Pointer[Session]
		sess, err := p.start(context.Background(), spec, obs, func(res *Result, err error) {
			if ctx.Stale() {
				// The scheduler reclaimed this attempt (failover) and a
				// retry owns the build now: writing artifacts or the
				// summary here would overwrite the live attempt's data.
				// done() would be ignored as stale anyway.
				return
			}
			if err != nil {
				ctx.Logf("measurement failed: %v", err)
				done(err)
				return
			}
			saveCSV := func(name string, s *trace.Series) error {
				var b bytes.Buffer
				if err := s.WriteCSV(&b); err != nil {
					return err
				}
				ctx.Build.Workspace().Save(name, b.Bytes())
				return nil
			}
			if err := saveCSV(ArtifactCurrentCSV, res.Current); err != nil {
				done(err)
				return
			}
			var bin bytes.Buffer
			if err := res.Current.WriteBinary(&bin); err != nil {
				done(err)
				return
			}
			ctx.Build.Workspace().Save(ArtifactCurrentTrace, bin.Bytes())
			if err := saveCSV(ArtifactDeviceCPU, res.DeviceCPU); err != nil {
				done(err)
				return
			}
			if err := saveCSV(ArtifactControllerCPU, res.ControllerCPU); err != nil {
				done(err)
				return
			}
			summary := res.Current.Summary()
			live := res.Current.Live()
			var dropped int64
			if sess := sessRef.Load(); sess != nil {
				dropped = sess.DroppedSamples()
			}
			ctx.Build.SetSummary(api.RunSummary{
				Samples:            int64(res.Current.Len()),
				MeanMA:             summary.Mean,
				P50MA:              live.P50,
				P95MA:              live.P95,
				EnergyMAH:          res.EnergyMAH,
				DurationNS:         int64(res.Duration),
				MirrorUploadBytes:  res.MirrorUploadBytes,
				DroppedLiveSamples: dropped,
			})
			ctx.Logf("measured %s: %.2f mAh over %s (%d samples)",
				spec.Device, res.EnergyMAH, res.Duration, res.Current.Len())
			done(nil)
		})
		if err != nil {
			done(err)
			return
		}
		sessRef.Store(sess)
		// Attempt-gated: if the scheduler failed this attempt over while
		// setup blocked, the registration is dropped instead of
		// displacing the retry's cancel hook.
		ctx.OnCancel(sess.Cancel)
		ctx.Logf("experiment scheduled: ~%s of device time", sess.Scripted())
	}
}

// feedObserver forwards a session's progress into its build's feed.
// OnPhase runs on the clock-dispatch context and OnSample on the
// session's delivery goroutine; Feed appends never block either (the
// buffers are bounded, drop-under-backpressure), so a slow or stalled
// HTTP consumer downstream cannot stall the capture loop.
type feedObserver struct {
	build int
	feed  *feedhub.Feed
}

// OnPhase implements Observer.
func (o feedObserver) OnPhase(e PhaseChange) {
	ev := api.BuildEvent{
		Build:  o.build,
		Node:   e.Node,
		Device: e.Device,
		Phase:  e.Phase.String(),
		Step:   e.Step,
		AtNS:   e.At.UnixNano(),
	}
	if e.Err != nil {
		ev.Error = e.Err.Error()
	}
	o.feed.PostEvent(ev)
}

// OnSample implements Observer.
func (o feedObserver) OnSample(s Sample) {
	o.feed.PostSample(api.SamplePoint{
		AtNS:      s.At.UnixNano(),
		CurrentMA: s.CurrentMA,
		N:         int64(s.Live.N),
		MeanMA:    s.Live.Mean,
		P50MA:     s.Live.P50,
		P95MA:     s.Live.P95,
		IntegralS: s.Live.IntegralSeconds,
	})
}

// SubmitExperiment creates a measurement job from spec and, when the
// creator is an admin (whose own jobs are implicitly approved), queues a
// build of it. Experimenter-created jobs are left awaiting the §3.1
// admin approval; the returned build is nil in that case. A spec that
// does not compile fails here, typed, before any job exists.
func (p *Platform) SubmitExperiment(user *accessserver.User, jobName string, spec api.ExperimentSpec) (*accessserver.Build, error) {
	job, err := p.Access.CreateJob(user, jobName, spec)
	if err != nil {
		return nil, err
	}
	if !job.Approved {
		return nil, nil // awaiting admin approval
	}
	b, err := p.Access.Submit(user, jobName)
	if err != nil {
		return nil, fmt.Errorf("core: submitting %s: %w", jobName, err)
	}
	return b, nil
}
