package experiments

import (
	"time"

	"batterylab/internal/core"
	"batterylab/internal/mirror"
	"batterylab/internal/stats"
)

// SysPerfReport reproduces the §4.2 "System Performance" numbers.
type SysPerfReport struct {
	// CtlCPUExtraAvg: average controller CPU added by mirroring (the
	// paper: "extra 50 %, on average").
	CtlCPUExtraAvg float64
	// MemExtraPct: memory added by mirroring as % of the Pi's 1 GB
	// (paper: ~6 %).
	MemExtraPct float64
	// MemTotalPct: total memory utilization with mirroring (paper:
	// < 20 %).
	MemTotalPct float64
	// UploadMB: device→controller stream volume over the test (paper:
	// ~32 MB per ~7 min).
	UploadMB float64
	// UploadBoundMB: the 1 Mbps encoding-cap upper bound for the same
	// window (paper: ~50 MB).
	UploadBoundMB float64
	// TestDuration is the measured window.
	TestDuration time.Duration
	// LatencyMean/LatencyStd: the click-to-photon mirroring latency
	// over LatencyTrials co-located trials (paper: 1.44 ± 0.12 s over
	// 40).
	LatencyMean   float64
	LatencyStd    float64
	LatencyTrials int
}

// SysPerf runs the Chrome workload with and without mirroring and
// derives the system-performance report.
func SysPerf(opts Options) (*SysPerfReport, error) {
	opts = opts.withDefaults()
	run := func(mirroring bool, seed uint64) (*core.Result, *Env, error) {
		env, err := NewEnv(seed)
		if err != nil {
			return nil, nil, err
		}
		spec := opts.browserSpec("node1", env.Serial, "Chrome")
		spec.Mirroring = mirroring
		res, err := env.run(spec)
		return res, env, err
	}

	plain, _, err := run(false, opts.Seed)
	if err != nil {
		return nil, err
	}
	mirrored, envM, err := run(true, opts.Seed+7)
	if err != nil {
		return nil, err
	}

	rep := &SysPerfReport{TestDuration: mirrored.Duration}
	rep.CtlCPUExtraAvg = mirrored.ControllerCPU.Summary().Mean - plain.ControllerCPU.Summary().Mean

	// Memory: sample with the session still conceptually active — rerun
	// the delta from the host model directly.
	baseMem := 100 * float64(128+14) / 1024 // raspbian + monsoon poller
	sess, err := envM.Ctl.MirrorSession(envM.Serial)
	if err != nil {
		return nil, err
	}
	if err := sess.Start(0); err != nil {
		return nil, err
	}
	withMem := envM.Ctl.Host().MemoryPercent()
	sess.Stop()
	rep.MemExtraPct = withMem - baseMem
	rep.MemTotalPct = withMem

	rep.UploadMB = float64(mirrored.MirrorUploadBytes) / 1e6
	rep.UploadBoundMB = mirror.DefaultBitrateMbps * 1e6 / 8 * mirrored.Duration.Seconds() / 1e6

	probe := mirror.NewLatencyProbe(opts.Seed, time.Millisecond)
	samples := probe.Measure(40)
	lat := stats.Summarize(samples) // one pass for mean and std
	rep.LatencyMean = lat.Mean
	rep.LatencyStd = lat.Std
	rep.LatencyTrials = len(samples)
	return rep, nil
}
