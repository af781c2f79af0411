// Command blab-bench regenerates the paper's tables and figures from the
// simulation and prints them as text tables (README "Reproducing the
// paper"). Each experiment runs at the paper's scale by default
// (5 repetitions, 10 pages, 5-minute accuracy test).
//
// Usage:
//
//	blab-bench -all
//	blab-bench -fig 2      # one figure (2, 3, 4, 5, 6)
//	blab-bench -table 2    # Table 2
//	blab-bench -sys        # §4.2 system performance
//	blab-bench -ablations  # design-choice ablations
//	blab-bench -campaign   # concurrent campaign sweep (-nodes, -per-node)
//
// Scale knobs: -reps, -pages, -scrolls, -rate, -video-seconds, -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"batterylab/internal/experiments"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		fig       = flag.Int("fig", 0, "figure number to reproduce (2-6)")
		tab       = flag.Int("table", 0, "table number to reproduce (2)")
		sys       = flag.Bool("sys", false, "system performance (§4.2)")
		ablations = flag.Bool("ablations", false, "design-choice ablations")
		campaign  = flag.Bool("campaign", false, "concurrent campaign sweep across vantage points")
		nodes     = flag.Int("nodes", 2, "vantage points for -campaign")
		perNode   = flag.Int("per-node", 3, "runs per vantage point for -campaign")

		seed    = flag.Uint64("seed", 2019, "simulation seed")
		reps    = flag.Int("reps", 5, "repetitions per configuration")
		pages   = flag.Int("pages", 10, "pages per browser run")
		scrolls = flag.Int("scrolls", 8, "scrolls per page")
		rate    = flag.Int("rate", 250, "monitor sample rate (Hz) for sweeps")
		videoS  = flag.Int("video-seconds", 300, "accuracy test duration")
	)
	flag.Parse()

	opts := experiments.Options{
		Seed:          *seed,
		Repetitions:   *reps,
		Pages:         *pages,
		Scrolls:       *scrolls,
		SampleRate:    *rate,
		VideoDuration: time.Duration(*videoS) * time.Second,
	}

	ran := false
	run := func(name string, f func() (string, error)) {
		ran = true
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s regenerated in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *all || *fig == 2 {
		run("figure 2", func() (string, error) {
			o := opts
			o.SampleRate = 5000 // the Monsoon's full rate
			rows, err := experiments.Fig2Accuracy(o)
			if err != nil {
				return "", err
			}
			gap, err := experiments.SummarizeFig2(rows)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig2(rows) + fmt.Sprintf(
				"direct/relay KS=%.3f  mirror lift=%.1f mA\n",
				gap.DirectRelayKS, gap.MirrorLiftMA), nil
		})
	}
	if *all || *fig == 3 {
		run("figure 3", func() (string, error) {
			rows, err := experiments.Fig3BrowserEnergy(opts)
			if err != nil {
				return "", err
			}
			f := experiments.SummarizeFig3(rows)
			return experiments.FormatFig3(rows) + fmt.Sprintf(
				"order: %v  mirror-extra spread=%.2f mAh\n", f.Order, f.ExtraSpreadMAH), nil
		})
	}
	if *all || *fig == 4 {
		run("figure 4", func() (string, error) {
			rows, err := experiments.Fig4DeviceCPU(opts)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig4(rows), nil
		})
	}
	if *all || *fig == 5 {
		run("figure 5", func() (string, error) {
			rows, err := experiments.Fig5ControllerCPU(opts)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig5(rows), nil
		})
	}
	if *all || *tab == 2 {
		run("table 2", func() (string, error) {
			rows, err := experiments.Table2Rows(opts)
			if err != nil {
				return "", err
			}
			return experiments.FormatTable2(rows), nil
		})
	}
	if *all || *fig == 6 {
		run("figure 6", func() (string, error) {
			rows, err := experiments.Fig6VPNEnergy(opts)
			if err != nil {
				return "", err
			}
			f := experiments.SummarizeFig6(rows)
			return experiments.FormatFig6(rows) + fmt.Sprintf(
				"Chrome@Japan dip: %+.1f%%\n", f.ChromeJapanDipPct), nil
		})
	}
	if *all || *sys {
		run("system performance", func() (string, error) {
			rep, err := experiments.SysPerf(opts)
			if err != nil {
				return "", err
			}
			return experiments.FormatSysPerf(rep), nil
		})
	}
	if *all || *ablations {
		run("ablation: relay overhead", func() (string, error) {
			o := opts
			o.VideoDuration = time.Minute
			o.SampleRate = 1000
			rep, err := experiments.AblationRelayOverhead(o)
			if err != nil {
				return "", err
			}
			return experiments.FormatRelayOverhead(rep), nil
		})
		run("ablation: bitrate", func() (string, error) {
			rows, err := experiments.AblationBitrate(opts, nil)
			if err != nil {
				return "", err
			}
			return experiments.FormatBitrate(rows), nil
		})
		run("ablation: sample rate", func() (string, error) {
			rows, err := experiments.AblationSampleRate(opts, nil)
			if err != nil {
				return "", err
			}
			return experiments.FormatSampleRate(rows), nil
		})
		run("ablation: automation", func() (string, error) {
			rows, err := experiments.AblationAutomation(opts)
			if err != nil {
				return "", err
			}
			return experiments.FormatAutomation(rows), nil
		})
		run("ablation: scheduler", func() (string, error) {
			rows, err := experiments.AblationScheduler(opts)
			if err != nil {
				return "", err
			}
			return experiments.FormatScheduler(rows), nil
		})
	}

	if *all || *campaign {
		run("campaign sweep", func() (string, error) {
			rep, err := experiments.CampaignSweep(opts, *nodes, *perNode)
			if err != nil {
				return "", err
			}
			return experiments.FormatCampaign(rep), nil
		})
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
