package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/adb"
	"batterylab/internal/api"
	"batterylab/internal/mirror"
	"batterylab/internal/power"
	"batterylab/internal/simclock"
	"batterylab/internal/stats"
	"batterylab/internal/video"
)

// This file holds the ablation studies: each isolates one design choice
// of the platform and quantifies its cost.

// RelayOverheadReport quantifies the circuit switch's measurement cost
// (the design choice behind Fig. 2's "negligible difference" claim).
type RelayOverheadReport struct {
	DirectMedianMA float64
	RelayMedianMA  float64
	DeltaPct       float64
	KSDistance     float64
}

// AblationRelayOverhead measures direct vs relay wiring.
func AblationRelayOverhead(opts Options) (*RelayOverheadReport, error) {
	opts = opts.withDefaults()
	rows, err := Fig2Accuracy(opts)
	if err != nil {
		return nil, err
	}
	byName := map[string]*stats.CDF{}
	for _, r := range rows {
		byName[r.Scenario] = r.CDF
	}
	rep := &RelayOverheadReport{
		DirectMedianMA: byName["direct"].Median(),
		RelayMedianMA:  byName["relay"].Median(),
		KSDistance:     stats.KSDistance(byName["direct"], byName["relay"]),
	}
	rep.DeltaPct = 100 * (rep.RelayMedianMA - rep.DirectMedianMA) / rep.DirectMedianMA
	return rep, nil
}

// BitrateRow is one row of the encoder-cap ablation.
type BitrateRow struct {
	CapMbps      float64
	DeviceCPUPct float64 // mean device CPU during mirrored video
	UploadMB     float64
	CurrentMA    float64 // mean draw
}

// AblationBitrate sweeps the scrcpy bitrate cap during mirrored video
// playback: the knob trades stream quality for device CPU, upload volume
// and battery cost. The paper pins it at 1 Mbps.
func AblationBitrate(opts Options, caps []float64) ([]BitrateRow, error) {
	opts = opts.withDefaults()
	if len(caps) == 0 {
		caps = []float64{0.5, 1, 2, 4}
	}
	const window = time.Minute
	var rows []BitrateRow
	for i, cap := range caps {
		env, err := NewEnv(opts.Seed + uint64(i)*4409)
		if err != nil {
			return nil, err
		}
		if err := env.Ctl.ADB().EnableTCPIP(env.Serial); err != nil {
			return nil, err
		}
		if err := env.Ctl.ADB().SetTransport(env.Serial, adb.TransportWiFi); err != nil {
			return nil, err
		}
		if err := env.Dev.LaunchApp(video.PackageName); err != nil {
			return nil, err
		}
		sess, err := env.Ctl.MirrorSession(env.Serial)
		if err != nil {
			return nil, err
		}
		if err := sess.Start(cap); err != nil {
			return nil, err
		}
		env.Ctl.PowerMonitor()
		env.Ctl.SetVoltage(env.Dev.Battery().NominalVoltage())
		if err := env.Ctl.StartMonitor(env.Serial, opts.SampleRate); err != nil {
			return nil, err
		}
		var cpuSamples []float64
		startBytes := sess.BytesSent()
		for t := time.Duration(0); t < window; t += time.Second {
			env.Clk.Advance(time.Second)
			cpuSamples = append(cpuSamples, env.Dev.CPU().UtilAt(env.Clk.Now()))
		}
		series, err := env.Ctl.StopMonitor()
		if err != nil {
			return nil, err
		}
		rows = append(rows, BitrateRow{
			CapMbps:      cap,
			DeviceCPUPct: stats.Mean(cpuSamples),
			UploadMB:     float64(sess.BytesSent()-startBytes) / 1e6,
			CurrentMA:    series.Summary().Mean,
		})
		sess.Stop()
	}
	return rows, nil
}

// SampleRateRow is one row of the sampling-rate ablation.
type SampleRateRow struct {
	RateHz      int
	EnergyMAH   float64
	ErrorPct    float64 // vs the 5 kHz reference
	SampleCount int
}

// AblationSampleRate sweeps the monitor's sampling rate on an identical
// video workload and reports the energy-estimate error relative to the
// full 5 kHz hardware rate — the justification for decimating long
// sweeps.
func AblationSampleRate(opts Options, rates []int) ([]SampleRateRow, error) {
	opts = opts.withDefaults()
	if len(rates) == 0 {
		rates = []int{50, 250, 1000, 5000}
	}
	const window = 30 * time.Second
	run := func(rate int) (float64, int, error) {
		env, err := NewEnv(opts.Seed) // same seed: identical workload
		if err != nil {
			return 0, 0, err
		}
		if err := env.Ctl.ADB().EnableTCPIP(env.Serial); err != nil {
			return 0, 0, err
		}
		if err := env.Ctl.ADB().SetTransport(env.Serial, adb.TransportWiFi); err != nil {
			return 0, 0, err
		}
		if err := env.Dev.LaunchApp(video.PackageName); err != nil {
			return 0, 0, err
		}
		env.Ctl.PowerMonitor()
		env.Ctl.SetVoltage(env.Dev.Battery().NominalVoltage())
		if err := env.Ctl.StartMonitor(env.Serial, rate); err != nil {
			return 0, 0, err
		}
		env.Clk.Advance(window)
		series, err := env.Ctl.StopMonitor()
		if err != nil {
			return 0, 0, err
		}
		return series.EnergyMAH(), series.Len(), nil
	}
	ref, _, err := run(5000)
	if err != nil {
		return nil, err
	}
	var rows []SampleRateRow
	for _, rate := range rates {
		e, n, err := run(rate)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SampleRateRow{
			RateHz:      rate,
			EnergyMAH:   e,
			ErrorPct:    100 * math.Abs(e-ref) / ref,
			SampleCount: n,
		})
	}
	return rows, nil
}

// AutomationRow is one row of the automation-channel ablation.
type AutomationRow struct {
	Channel        string
	MeasuredMA     float64 // what the monitor sees
	TrueMA         float64 // the device's actual draw
	DistortionPct  float64
	SupportsMirror bool
}

// AblationAutomation quantifies §3.3's channel trade-off: the monitor's
// view of an idle device when automation runs over USB (port powered —
// distorted), WiFi, or the Bluetooth keyboard.
func AblationAutomation(opts Options) ([]AutomationRow, error) {
	opts = opts.withDefaults()
	const window = 20 * time.Second
	channels := []struct {
		name    string
		mirror  bool
		prepare func(env *Env) error
	}{
		{"adb-usb", true, func(env *Env) error {
			// Leave the USB port powered: the forbidden configuration.
			env.Ctl.PowerMonitor()
			if err := env.Ctl.SetVoltage(env.Dev.Battery().NominalVoltage()); err != nil {
				return err
			}
			if _, err := env.Ctl.BattSwitch(env.Serial); err != nil { // relay to bypass
				return err
			}
			env.Ctl.Monsoon().WireSource(env.Dev.MonitorVisibleSource())
			return env.Ctl.Monsoon().StartSampling(opts.SampleRate)
		}},
		{"adb-wifi", true, func(env *Env) error {
			if err := env.Ctl.ADB().EnableTCPIP(env.Serial); err != nil {
				return err
			}
			if err := env.Ctl.ADB().SetTransport(env.Serial, adb.TransportWiFi); err != nil {
				return err
			}
			env.Ctl.PowerMonitor()
			if err := env.Ctl.SetVoltage(env.Dev.Battery().NominalVoltage()); err != nil {
				return err
			}
			return env.Ctl.StartMonitor(env.Serial, opts.SampleRate)
		}},
		{"bt-keyboard", false, func(env *Env) error {
			env.Ctl.PowerMonitor()
			if err := env.Ctl.SetVoltage(env.Dev.Battery().NominalVoltage()); err != nil {
				return err
			}
			return env.Ctl.StartMonitor(env.Serial, opts.SampleRate)
		}},
	}
	var rows []AutomationRow
	for i, ch := range channels {
		env, err := NewEnv(opts.Seed + uint64(i)*5003)
		if err != nil {
			return nil, err
		}
		if err := ch.prepare(env); err != nil {
			return nil, fmt.Errorf("ablation automation %s: %w", ch.name, err)
		}
		var trueSamples []float64
		for t := time.Duration(0); t < window; t += 200 * time.Millisecond {
			env.Clk.Advance(200 * time.Millisecond)
			trueSamples = append(trueSamples, power.At(env.Dev, env.Clk.Now()))
		}
		series, err := env.Ctl.Monsoon().StopSampling()
		if err != nil {
			return nil, err
		}
		measured := series.Summary().Mean
		true_ := stats.Mean(trueSamples)
		row := AutomationRow{
			Channel:        ch.name,
			MeasuredMA:     measured,
			TrueMA:         true_,
			SupportsMirror: ch.mirror,
		}
		if true_ > 0 {
			row.DistortionPct = 100 * math.Abs(measured-true_) / true_
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SchedulerRow is one row of the queue-policy ablation.
type SchedulerRow struct {
	Policy     string
	MakespanS  float64
	AvgWaitS   float64
	BuildCount int
}

// AblationScheduler compares per-device locking (the platform's policy:
// experiments on different devices run concurrently) against
// whole-node locking, for a batch of jobs across two devices.
func AblationScheduler(opts Options) ([]SchedulerRow, error) {
	opts = opts.withDefaults()
	const jobDur = 30 * time.Second
	const jobsPerDevice = 3

	run := func(perDevice bool) (SchedulerRow, error) {
		env, err := NewEnv(opts.Seed)
		if err != nil {
			return SchedulerRow{}, err
		}
		// Second device on the same vantage point.
		dev2, err := newSecondDevice(env)
		if err != nil {
			return SchedulerRow{}, err
		}
		srv := env.Plat.Access
		srv.SetSpecBackend(holdBackend{clk: env.Clk, dur: jobDur})
		admin, err := srv.Users.Add("sched-admin", accessserver.RoleAdmin)
		if err != nil {
			return SchedulerRow{}, err
		}
		serials := []string{env.Serial, dev2.Serial()}
		var builds []*accessserver.Build
		start := env.Clk.Now()
		for i := 0; i < jobsPerDevice*2; i++ {
			spec := api.ExperimentSpec{Node: "node1", Workload: api.WorkloadSpec{Name: "hold"}}
			if perDevice {
				spec.Device = serials[i%2]
			}
			name := fmt.Sprintf("job-%v-%d", perDevice, i)
			if _, err := srv.CreateJob(admin, name, spec); err != nil {
				return SchedulerRow{}, err
			}
			b, err := srv.Submit(admin, name)
			if err != nil {
				return SchedulerRow{}, err
			}
			builds = append(builds, b)
		}
		// Drive until all builds finish.
		settling := func() bool {
			return slices.ContainsFunc(builds, func(b *accessserver.Build) bool { return !b.State().Terminal() })
		}
		budget := start.Add(time.Duration(len(builds)+2) * jobDur * 2)
		if err := env.Clk.RunWhile(settling, func() time.Time { return budget }); err != nil {
			return SchedulerRow{}, fmt.Errorf("ablation scheduler: %w", err)
		}
		row := SchedulerRow{BuildCount: len(builds)}
		if perDevice {
			row.Policy = "per-device-lock"
		} else {
			row.Policy = "whole-node-lock"
		}
		row.MakespanS = env.Clk.Now().Sub(start).Seconds()
		var wait float64
		for _, b := range builds {
			wait += b.QueueTime().Seconds()
		}
		row.AvgWaitS = wait / float64(len(builds))
		return row, nil
	}

	perDev, err := run(true)
	if err != nil {
		return nil, err
	}
	wholeNode, err := run(false)
	if err != nil {
		return nil, err
	}
	return []SchedulerRow{perDev, wholeNode}, nil
}

// holdBackend is AblationScheduler's spec backend: every build holds
// its lock for dur of simulated time. A spec that names no device
// compiles to whole-node constraints — the policy under comparison.
type holdBackend struct {
	clk simclock.Clock
	dur time.Duration
}

func (h holdBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	run := func(_ *accessserver.BuildContext, done func(error)) {
		h.clk.AfterFunc(h.dur, func() { done(nil) })
	}
	return accessserver.Constraints{Node: spec.Node, Device: spec.Device}, run, nil
}

func (holdBackend) WorkloadNames() []string { return []string{"hold"} }

// mirrorDefaultCap re-exports the default bitrate for reports.
const mirrorDefaultCap = mirror.DefaultBitrateMbps
