package experiments

import (
	"context"
	"fmt"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/browser"
	"batterylab/internal/controller"
	"batterylab/internal/core"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

// MultiEnv is a federation of several single-device vantage points on
// one virtual clock — the substrate for campaign sweeps.
type MultiEnv struct {
	Clk     *simclock.Virtual
	Plat    *core.Platform
	Ctls    []*controller.Controller
	Serials []string
}

// NewMultiEnv builds a platform joined by n vantage points ("node1"…),
// each hosting one device with the study browsers installed.
func NewMultiEnv(seed uint64, n int) (*MultiEnv, error) {
	clk := simclock.NewVirtual()
	plat, err := core.NewPlatform(clk, seed)
	if err != nil {
		return nil, err
	}
	env := &MultiEnv{Clk: clk, Plat: plat}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i+1)
		ctl, err := controller.New(clk, controller.Config{Name: name, Seed: seed + uint64(i)*131})
		if err != nil {
			return nil, err
		}
		dev, err := device.New(clk, device.Config{
			Seed:   seed + uint64(i)*151,
			Serial: fmt.Sprintf("DEV%s", name),
		})
		if err != nil {
			return nil, err
		}
		if err := ctl.AttachDevice(dev); err != nil {
			return nil, err
		}
		for _, prof := range browser.Profiles() {
			b := browser.New(prof, ctl.AP(), func() string { return ctl.Region() })
			if err := dev.Install(b); err != nil {
				return nil, err
			}
		}
		if _, err := plat.Join(ctl, fmt.Sprintf("198.51.100.%d:2222", 10+i)); err != nil {
			return nil, err
		}
		env.Ctls = append(env.Ctls, ctl)
		env.Serials = append(env.Serials, dev.Serial())
	}
	return env, nil
}

// CampaignRow is one run of the campaign sweep.
type CampaignRow struct {
	Node      string
	Browser   string
	EnergyMAH float64
	Err       string
}

// CampaignReport aggregates the sweep: per-run energies plus the
// concurrency win (simulated makespan vs the sum of run durations a
// sequential for-loop would have paid).
type CampaignReport struct {
	Rows          []CampaignRow
	Makespan      time.Duration
	SequentialSum time.Duration
}

// CampaignSweep runs runsPerNode browser workloads on each of nodes
// vantage points as one concurrent campaign — the platform-scale usage
// the campaign API exists for. It submits wire specs of the registry's
// browser workload to the platform's own access server, which runs
// distinct nodes side by side in simulated time and each node's runs
// one after another on its Monsoon.
func CampaignSweep(opts Options, nodes, runsPerNode int) (*CampaignReport, error) {
	opts = opts.withDefaults()
	if nodes <= 0 {
		nodes = 2
	}
	if runsPerNode <= 0 {
		runsPerNode = 3
	}
	env, err := NewMultiEnv(opts.Seed, nodes)
	if err != nil {
		return nil, err
	}
	names := BrowserNames()
	var spec api.CampaignSpec
	var labels []CampaignRow
	for r := 0; r < runsPerNode; r++ {
		for n := 0; n < nodes; n++ {
			name := names[r%len(names)]
			spec.Experiments = append(spec.Experiments, opts.browserSpec(env.Ctls[n].Name(), env.Serials[n], name))
			labels = append(labels, CampaignRow{Node: env.Ctls[n].Name(), Browser: name})
		}
	}
	start := env.Clk.Now()
	cs, err := env.Plat.StartCampaignSpec(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	runs, err := cs.Wait(context.Background())
	if err != nil {
		return nil, err
	}
	rep := &CampaignReport{Makespan: env.Clk.Now().Sub(start)}
	for i, run := range runs {
		row := labels[i]
		if run.Err != nil {
			row.Err = run.Err.Error()
		} else {
			row.EnergyMAH = run.Result.EnergyMAH
			rep.SequentialSum += run.Result.Duration
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
