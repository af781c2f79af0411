package batterylab_test

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"batterylab"
)

// The five-minute tour of the public API: assemble a single-vantage-point
// deployment on a virtual clock, run one battery measurement of a
// browsing workload, and print the trace statistics. The run is a build
// on the platform's own access server; an observer watches it reach each
// phase of the §3 pipeline.
func ExamplePlatform_StartExperimentSpec() {
	// A Deployment is the paper's first vantage point: an access server
	// plus a controller hosting a Samsung J7 Duo wired to a simulated
	// Monsoon through the relay switch.
	clock := batterylab.VirtualClock()
	dep, err := batterylab.NewDeployment(clock, batterylab.DeploymentConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vantage point %s hosting device %s\n", dep.FQDN, dep.DeviceSerial)

	// The workload: Brave visiting three news pages, scrolling around
	// each — the registry's "browser" workload, scripted exactly like
	// the paper's bash-over-ADB automation.
	ctx := context.Background()
	x, err := dep.Platform.StartExperimentSpec(ctx, batterylab.ExperimentSpecV1{
		Node:    dep.NodeName,
		Device:  dep.DeviceSerial,
		Monitor: batterylab.MonitorSpec{SampleRateHz: 1000},
		Workload: batterylab.WorkloadSpec{Name: "browser",
			Params: batterylab.Params{"browser": "Brave", "pages": 3, "scrolls": 6}},
	}, batterylab.ObserverFuncs{
		Phase: func(e batterylab.PhaseChange) {
			if e.Step == "" {
				fmt.Printf("  phase: %s\n", e.Phase)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := x.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}

	cdf, err := res.Current.CDF()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("build %d measured %s of battery activity:\n", x.Build(), res.Duration.Round(time.Second))
	fmt.Printf("  current    p50 = %6.1f mA, p90 = %6.1f mA\n", cdf.Median(), cdf.Quantile(0.9))
	fmt.Printf("  discharge      = %6.2f mAh\n", res.EnergyMAH)
	fmt.Printf("  device CPU p50 = %6.1f %%\n", res.DeviceCPU.Summary().Median)
	fmt.Printf("  battery left   = %6.1f %%\n", 100*dep.Device.Battery().SoC())
	// Output:
	// vantage point node1.batterylab.dev hosting device J7DUO000001
	//   phase: transport-armed
	//   phase: monitor-armed
	//   phase: workload
	//   phase: settle
	//   phase: done
	// build 1 measured 1m0s of battery activity:
	//   current    p50 =  190.3 mA, p90 =  296.0 mA
	//   discharge      =   3.69 mAh
	//   device CPU p50 =   11.7 %
	//   battery left   =  100.0 %
}

// measure runs one wire spec on a deployment and returns its discharge.
func measure(dep *batterylab.Deployment, spec batterylab.ExperimentSpecV1) float64 {
	ctx := context.Background()
	x, err := dep.Platform.StartExperimentSpec(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := x.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return res.EnergyMAH
}

// The paper's demonstration question (§4.2) at interactive scale: which
// of today's Android browsers is the most energy efficient? Brave,
// Chrome, Edge and Firefox are measured on the same device over repeated
// page-visit workloads, with and without device mirroring.
func Example_browserStudy() {
	const repetitions, pages = 3, 5
	fmt.Println("Research question: which Android browser is the most energy efficient?")
	fmt.Printf("Workload: %d news pages x %d repetitions, mirroring off/on\n\n", pages, repetitions)

	type row struct {
		browser       string
		offMAH, onMAH float64
	}
	var rows []row
	for _, prof := range batterylab.BrowserProfiles() {
		// A fresh deployment per browser keeps runs independent, like
		// re-imaging the testbed between experimenters.
		dep, err := batterylab.NewDeployment(batterylab.VirtualClock(), batterylab.DeploymentConfig{Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		r := row{browser: prof.Name}
		for _, mirroring := range []bool{false, true} {
			var sum float64
			for rep := 0; rep < repetitions; rep++ {
				sum += measure(dep, batterylab.ExperimentSpecV1{
					Node:      dep.NodeName,
					Device:    dep.DeviceSerial,
					Mirroring: mirroring,
					Monitor:   batterylab.MonitorSpec{SampleRateHz: 250},
					Workload: batterylab.WorkloadSpec{Name: "browser",
						Params: batterylab.Params{"browser": prof.Name, "pages": pages}},
				})
			}
			if mirroring {
				r.onMAH = sum / repetitions
			} else {
				r.offMAH = sum / repetitions
			}
		}
		rows = append(rows, r)
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].offMAH < rows[j].offMAH })
	fmt.Printf("%-9s %14s %14s %14s\n", "browser", "discharge", "w/ mirroring", "mirror extra")
	for i, r := range rows {
		fmt.Printf("%d. %-6s %8.2f mAh %11.2f mAh %11.2f mAh\n",
			i+1, r.browser, r.offMAH, r.onMAH, r.onMAH-r.offMAH)
	}
	fmt.Printf("\n%s is the most energy-efficient; %s consumes the most —\n",
		rows[0].browser, rows[len(rows)-1].browser)
	fmt.Println("and the ordering is unchanged by mirroring, whose cost is a")
	fmt.Println("browser-independent constant (as in the paper's Figure 3).")
	// Output:
	// Research question: which Android browser is the most energy efficient?
	// Workload: 5 news pages x 3 repetitions, mirroring off/on
	//
	// browser        discharge   w/ mirroring   mirror extra
	// 1. Brave      7.26 mAh        8.28 mAh        1.02 mAh
	// 2. Chrome     9.43 mAh       10.56 mAh        1.13 mAh
	// 3. Edge       9.96 mAh       11.10 mAh        1.14 mAh
	// 4. Firefox    10.73 mAh       11.87 mAh        1.14 mAh
	//
	// Brave is the most energy-efficient; Firefox consumes the most —
	// and the ordering is unchanged by mirroring, whose cost is a
	// browser-independent constant (as in the paper's Figure 3).
}

// The paper's location study (§4.3) at interactive scale: a speedtest
// characterizes the five ProtonVPN exits (Table 2), then Brave and
// Chrome are measured through each tunnel (Figure 6), surfacing Chrome's
// dip at the Japanese exit where its ad payloads shrink.
func Example_vpnStudy() {
	dep, err := batterylab.NewDeployment(batterylab.VirtualClock(), batterylab.DeploymentConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Part 1 — Table 2: speedtest through every exit.
	fmt.Println("ProtonVPN exits as seen from the vantage point:")
	fmt.Printf("  %-14s %-14s %8s %8s %9s\n", "country", "server", "D(Mbps)", "U(Mbps)", "RTT(ms)")
	rows, err := dep.Controller.VPN().Table2()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-14s %-14s %8.2f %8.2f %9.1f\n",
			r.Country, r.Location, r.DownMbps, r.UpMbps, r.LatencyMS)
	}

	// Part 2 — Figure 6: browser energy per location.
	fmt.Println("\nBrave and Chrome energy through each tunnel (3 pages):")
	fmt.Printf("  %-14s %12s %12s\n", "location", "Brave (mAh)", "Chrome (mAh)")
	for _, exit := range batterylab.VPNExits() {
		var energies []float64
		for _, browser := range []string{"Brave", "Chrome"} {
			energies = append(energies, measure(dep, batterylab.ExperimentSpecV1{
				Node:        dep.NodeName,
				Device:      dep.DeviceSerial,
				VPNLocation: exit.Location,
				Monitor:     batterylab.MonitorSpec{SampleRateHz: 250},
				Workload: batterylab.WorkloadSpec{Name: "browser",
					Params: batterylab.Params{"browser": browser, "pages": 3}},
			}))
		}
		marker := ""
		if exit.CountryCode == "JP" {
			marker = "  <- Chrome's ads shrink ~20% here"
		}
		fmt.Printf("  %-14s %12.2f %12.2f%s\n", exit.Location, energies[0], energies[1], marker)
	}
	fmt.Println("\nLocation barely moves Brave; Chrome dips in Japan — the")
	fmt.Println("platform's distributed nature as a feature (§4.3).")
	// Output:
	// ProtonVPN exits as seen from the vantage point:
	//   country        server          D(Mbps)  U(Mbps)   RTT(ms)
	//   South Africa   Johannesburg       6.10     9.61     214.2
	//   China          Hong Kong          7.72     7.93     283.4
	//   Brazil         Sao Paulo          9.35     8.64     229.6
	//   Japan          Bunkyo             9.68     7.47     236.1
	//   CA, USA        Santa Clara       10.94    14.57     209.5
	//
	// Brave and Chrome energy through each tunnel (3 pages):
	//   location        Brave (mAh) Chrome (mAh)
	//   Johannesburg           5.23         6.75
	//   Hong Kong              5.16         6.73
	//   Bunkyo                 5.02         6.49  <- Chrome's ads shrink ~20% here
	//   Sao Paulo              5.00         6.54
	//   Santa Clara            4.99         6.49
	//
	// Location barely moves Brave; Chrome dips in Japan — the
	// platform's distributed nature as a feature (§4.3).
}
