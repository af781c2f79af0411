package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/samples"
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

// Artifact names a measurement build saves into its workspace. Every
// trace is stored in the binary trace format (v2), which carries its
// own epoch and every bit of every sample. current.csv, the Monsoon
// library's export format, is not stored: it is a view the workspace
// renders from current.trace each time someone reads it.
const (
	ArtifactCurrentCSV    = "current.csv"
	ArtifactCurrentTrace  = "current.trace"
	ArtifactDeviceCPU     = "device-cpu.trace"
	ArtifactControllerCPU = "controller-cpu.trace"
)

// measurementJob wraps a compiled spec as an access-server pipeline
// body (what specBackend.Compile returns). The build succeeds when the
// measurement completes and saveRun has stored its result. The
// session's phase events and live samples are posted to the build's
// feed, and the session's Cancel is registered as the build's cancel
// hook, so clients can stream progress and abort mid-run.
func (p *Platform) measurementJob(spec experimentSpec) accessserver.RunFunc {
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
		sess, err := p.start(spec, ctx.Build.ID, ctx.Build.Feed(), func(res *Result, err error) {
			if ctx.Stale() {
				// The scheduler reclaimed this attempt (failover) and a
				// retry owns the build now: writing artifacts or the
				// summary here would overwrite the live attempt's data.
				// done() would be ignored as stale anyway.
				return
			}
			if err == nil {
				err = saveRun(ctx.Build, res)
			}
			if err != nil {
				ctx.Logf("measurement failed: %v", err)
				done(err)
				return
			}
			ctx.Logf("measured %s: %.2f mAh over %s (%d samples)",
				spec.Device, res.EnergyMAH, res.Duration, res.Current.Len())
			done(nil)
		})
		if err != nil {
			done(err)
			return
		}
		// Attempt-gated: if the scheduler failed this attempt over while
		// setup blocked, the registration is dropped instead of
		// displacing the retry's cancel hook.
		ctx.OnCancel(sess.Cancel)
		ctx.Logf("experiment scheduled: ~%s of device time", sess.scripted)
	}
}

// saveRun stores a finished run on its build: the artifacts
// decodeResult reads back, the current.csv view over them, and the run
// summary, which counts the live samples the build's feed dropped. The
// summary's whole-trace fields come from one snapshot of the capture's
// own summary, exact quantiles and all, the one analytics Total of
// current.trace, so they are marked as the rollup the analytics route
// serves and decodeResult takes the energy from.
func saveRun(b *accessserver.Build, res *Result) error {
	ws := b.Workspace()
	for _, a := range []struct {
		name   string
		series *trace.Series
	}{
		{ArtifactCurrentTrace, res.Current},
		{ArtifactDeviceCPU, res.DeviceCPU},
		{ArtifactControllerCPU, res.ControllerCPU},
	} {
		var bin bytes.Buffer
		if err := a.series.WriteBinary(&bin); err != nil {
			return err
		}
		ws.Save(a.name, bin.Bytes())
	}
	ws.SaveView(ArtifactCurrentCSV, ArtifactCurrentTrace, renderCSV)
	_, droppedSamples := b.Feed().Dropped()
	sum := api.NewRunSummary(res.Current.Live())
	sum.DurationNS = int64(res.Duration)
	sum.MirrorUploadBytes = res.MirrorUploadBytes
	sum.DroppedLiveSamples = droppedSamples
	sum.Rollup, sum.ExactQuantiles = true, true
	b.SetSummary(sum)
	return nil
}

// renderCSV is the current.csv view: the CSV export of a stored binary
// trace, byte for byte what WriteCSV makes of the series it encodes.
func renderCSV(bin []byte) ([]byte, error) {
	s, err := trace.DecodeBinary(bin)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		return nil, err
	}
	return csv.Bytes(), nil
}

// phaseChangeOf inverts session.postPhase: the PhaseChange a feed's
// event record carries. ok is false for a record that is no experiment
// phase — a scheduler failover transition, or a phase a newer server
// added.
func phaseChangeOf(ev api.BuildEvent) (c PhaseChange, ok bool) {
	phase, ok := phaseFromString(ev.Phase)
	if !ok {
		return PhaseChange{}, false
	}
	c = PhaseChange{
		Node:   ev.Node,
		Device: ev.Device,
		Phase:  phase,
		At:     time.Unix(0, ev.AtNS),
		Step:   ev.Step,
	}
	if ev.Error != "" {
		c.Err = errors.New(ev.Error)
	}
	return c, true
}

// sampleOf inverts the point a session posts each live sample as. A
// feed's sample carries neither the run's node and device, which its
// follower knows, nor the live summary's spread (Std, Min, Max), which
// stays zero.
func sampleOf(node, device string, pt api.SamplePoint) Sample {
	return Sample{
		Node:      node,
		Device:    device,
		At:        time.Unix(0, pt.AtNS),
		CurrentMA: pt.CurrentMA,
		Live: samples.LiveSummary{
			N:               int(pt.N),
			Mean:            pt.MeanMA,
			P50:             pt.P50MA,
			P95:             pt.P95MA,
			IntegralSeconds: pt.IntegralS,
		},
	}
}

// decodeResult rebuilds a run's Result from what saveRun left on its
// build, as its status st states it: the three binary traces in the
// workspace, and the summary. load fetches one artifact by name — from
// the workspace in-process, over HTTP for a remote client — so local and
// remote results come from the same bytes and the same code. The energy
// is the stored rollup's (st.StoredRollup) when it counts the samples
// decoded; otherwise it is folded from them.
func decodeResult(load func(name string) ([]byte, error), st api.BuildStatus) (*Result, error) {
	decode := func(name, what string) (*trace.Series, error) {
		data, err := load(name)
		if err != nil {
			return nil, fmt.Errorf("core: fetching %s trace: %w", what, err)
		}
		s, err := trace.DecodeBinary(data)
		if err != nil {
			return nil, fmt.Errorf("core: decoding %s trace: %w", what, err)
		}
		return s, nil
	}
	current, err := decode(ArtifactCurrentTrace, "current")
	if err != nil {
		return nil, err
	}
	devCPU, err := decode(ArtifactDeviceCPU, "device CPU")
	if err != nil {
		return nil, err
	}
	ctlCPU, err := decode(ArtifactControllerCPU, "controller CPU")
	if err != nil {
		return nil, err
	}
	res := &Result{
		Current:       current,
		DeviceCPU:     devCPU,
		ControllerCPU: ctlCPU,
	}
	if r := st.StoredRollup(); r != nil && r.Samples == int64(current.Len()) {
		res.EnergyMAH = r.EnergyMAH
	} else {
		res.EnergyMAH = current.EnergyMAH()
	}
	if sum := st.Summary; sum != nil {
		res.Duration = time.Duration(sum.DurationNS)
		res.MirrorUploadBytes = sum.MirrorUploadBytes
	}
	return res, nil
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
