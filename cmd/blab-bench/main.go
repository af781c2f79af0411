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
//	blab-bench -sched-bench -sched-bench-out BENCH_sched.json
//	                       # scheduler dispatch throughput + placement/fairness scenarios
//	blab-bench -sched-bench-check BENCH_sched.json
//	                       # fail if deterministic scheduler outcomes drift from the baseline
//	blab-bench -store-bench -store-bench-out BENCH_store.json
//	                       # WAL append/replay/compaction microbenchmark
//	blab-bench -store-bench-check BENCH_store.json
//	                       # fail if the deterministic WAL-size fields drift from the baseline
//	blab-bench -fleet-bench -fleet-bench-out BENCH_fleet.json
//	                       # fleet-scale load: nodes × streaming clients × campaign churn,
//	                       # a read-flood phase against the snapshot-served routes, and a
//	                       # two-server federation phase routing builds over the peer relay
//	blab-bench -fleet-bench-check BENCH_fleet.json
//	                       # fail if deterministic fleet outcomes (incl. read flood and
//	                       # federation) drift
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

		schedBench      = flag.Bool("sched-bench", false, "benchmark scheduler dispatch throughput, healthy vs 30% flaky fleet")
		schedBenchOut   = flag.String("sched-bench-out", "", "write the scheduler benchmark JSON here (default stdout)")
		schedBenchN     = flag.Int("sched-bench-builds", 100, "queued builds for -sched-bench")
		schedBenchNodes = flag.Int("sched-bench-nodes", 10, "vantage points for -sched-bench")
		schedBenchCk    = flag.String("sched-bench-check", "", "rerun the scheduler scenarios and fail if deterministic outcomes drift from this baseline JSON")

		storeBench    = flag.Bool("store-bench", false, "micro-benchmark the WAL append/replay/compaction path")
		storeBenchOut = flag.String("store-bench-out", "", "write the store benchmark JSON here (default stdout)")
		storeBenchN   = flag.Int("store-bench-builds", 10_000, "build lifecycles to log for -store-bench")
		storeBenchCk  = flag.String("store-bench-check", "", "rerun the store benchmark and fail if deterministic WAL-size fields drift from this baseline JSON")

		fleetBench        = flag.Bool("fleet-bench", false, "fleet-scale load harness: nodes × streaming clients × campaign churn on the virtual clock")
		fleetBenchOut     = flag.String("fleet-bench-out", "", "write the fleet benchmark JSON here (default stdout)")
		fleetBenchNodes   = flag.Int("fleet-bench-nodes", 16, "simulated vantage points for -fleet-bench")
		fleetBenchClients = flag.Int("fleet-bench-clients", 8, "concurrent event-stream clients for -fleet-bench")
		fleetBenchN       = flag.Int("fleet-bench-builds", 200, "builds (singles + campaigns) for -fleet-bench")
		fleetBenchCk      = flag.String("fleet-bench-check", "", "rerun the fleet scenario and fail if deterministic outcomes (including the read-flood section) drift from this baseline JSON")

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

	if *schedBench {
		ran = true
		if err := schedBenchTo(*schedBenchOut, *schedBenchN, *schedBenchNodes); err != nil {
			fmt.Fprintf(os.Stderr, "sched-bench: %v\n", err)
			os.Exit(1)
		}
		if *schedBenchOut != "" && *schedBenchOut != "-" {
			fmt.Printf("(scheduler benchmark written to %s)\n", *schedBenchOut)
		}
	}

	if *schedBenchCk != "" {
		ran = true
		if err := schedBenchCheck(*schedBenchCk); err != nil {
			fmt.Fprintf(os.Stderr, "sched-bench-check: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(scheduler outcomes match %s)\n", *schedBenchCk)
	}

	if *storeBench {
		ran = true
		if err := storeBenchTo(*storeBenchOut, *storeBenchN); err != nil {
			fmt.Fprintf(os.Stderr, "store-bench: %v\n", err)
			os.Exit(1)
		}
		if *storeBenchOut != "" && *storeBenchOut != "-" {
			fmt.Printf("(store benchmark written to %s)\n", *storeBenchOut)
		}
	}

	if *storeBenchCk != "" {
		ran = true
		if err := storeBenchCheck(*storeBenchCk); err != nil {
			fmt.Fprintf(os.Stderr, "store-bench-check: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(store WAL format matches %s)\n", *storeBenchCk)
	}

	if *fleetBench {
		ran = true
		if err := fleetBenchTo(*fleetBenchOut, *fleetBenchNodes, *fleetBenchClients, *fleetBenchN); err != nil {
			fmt.Fprintf(os.Stderr, "fleet-bench: %v\n", err)
			os.Exit(1)
		}
		if *fleetBenchOut != "" && *fleetBenchOut != "-" {
			fmt.Printf("(fleet benchmark written to %s)\n", *fleetBenchOut)
		}
	}

	if *fleetBenchCk != "" {
		ran = true
		if err := fleetBenchCheck(*fleetBenchCk); err != nil {
			fmt.Fprintf(os.Stderr, "fleet-bench-check: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(fleet outcomes match %s)\n", *fleetBenchCk)
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
