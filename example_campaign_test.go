package batterylab_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"batterylab"
)

// A campaign at platform scale: six browser measurements across two
// vantage points, queued on the platform's own access server as one
// campaign. The two nodes run side by side in simulated time while each
// node's runs stay serialized on its Monsoon, so the makespan is half of
// what a for-loop around StartExperimentSpec would pay.
func ExamplePlatform_StartCampaignSpec() {
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		log.Fatal(err)
	}

	// Two vantage points, one device each — the paper's federation,
	// built long-hand — and three runs per node: Brave, Chrome and Edge
	// visiting three pages.
	var spec batterylab.CampaignSpecV1
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("node%d", i+1)
		ctl, err := batterylab.NewController(clock, batterylab.ControllerConfig{Name: name, Seed: 2019 + uint64(i)})
		if err != nil {
			log.Fatal(err)
		}
		dev, err := batterylab.NewDevice(clock, batterylab.DeviceConfig{Seed: 100 + uint64(i)})
		if err != nil {
			log.Fatal(err)
		}
		if err := ctl.AttachDevice(dev); err != nil {
			log.Fatal(err)
		}
		for _, prof := range batterylab.BrowserProfiles() {
			if err := dev.Install(batterylab.NewBrowser(prof, ctl)); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := plat.Join(ctl, fmt.Sprintf("198.51.100.%d:2222", 10+i)); err != nil {
			log.Fatal(err)
		}
		for _, browser := range []string{"Brave", "Chrome", "Edge"} {
			spec.Experiments = append(spec.Experiments, batterylab.ExperimentSpecV1{
				Node: name, Device: dev.Serial(),
				Monitor: batterylab.MonitorSpec{SampleRateHz: 250},
				Workload: batterylab.WorkloadSpec{Name: "browser",
					Params: batterylab.Params{"browser": browser, "pages": 3}},
			})
		}
	}

	ctx := context.Background()
	start := clock.Now()
	cs, err := plat.StartCampaignSpec(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	runs, err := cs.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("campaign %d: %d runs across 2 vantage points\n", cs.ID, len(runs))
	var sequential time.Duration
	for i, run := range runs {
		browser := spec.Experiments[i].Workload.Params["browser"]
		if run.Err != nil {
			fmt.Printf("  %s %-7s FAILED: %v\n", run.Node, browser, run.Err)
			continue
		}
		sequential += run.Result.Duration
		fmt.Printf("  %s %-7s %5.2f mAh in %s (started %s)\n",
			run.Node, browser, run.Result.EnergyMAH,
			run.Result.Duration.Round(time.Second),
			run.Started.Format("15:04:05"))
	}
	makespan := clock.Now().Sub(start)
	fmt.Printf("makespan %s vs %s sequential (%.2fx concurrency win)\n",
		makespan.Round(time.Second), sequential.Round(time.Second),
		sequential.Seconds()/makespan.Seconds())
	// Output:
	// campaign 1: 6 runs across 2 vantage points
	//   node1 Brave    4.46 mAh in 1m12s (started 09:00:00)
	//   node1 Chrome   5.83 mAh in 1m12s (started 09:01:11)
	//   node1 Edge     6.12 mAh in 1m12s (started 09:02:23)
	//   node2 Brave    4.47 mAh in 1m12s (started 09:00:00)
	//   node2 Chrome   5.83 mAh in 1m12s (started 09:01:11)
	//   node2 Edge     6.11 mAh in 1m12s (started 09:02:23)
	// makespan 3m35s vs 7m9s sequential (2.00x concurrency win)
}
