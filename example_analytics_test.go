package batterylab_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"batterylab"
	"batterylab/internal/api"
	"batterylab/internal/remote"
)

// Trace analytics tour: run one experiment on a simulated deployment,
// then query the server-side analytics engine instead of downloading
// the trace — whole-run rollups, 2-second windowed means and energy,
// and a repeat query answered bit-identically from the result cache.
// Last, the Monsoon-style CSV export, which the server renders from
// the stored binary trace when it is fetched.
func Example_analytics() {
	// One simulated vantage point on a virtual clock, served over HTTP.
	clock := batterylab.VirtualClock()
	dep, err := batterylab.NewDeployment(clock, batterylab.DeploymentConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	token, err := batterylab.NewAPIToken(dep.Platform, "alice", "experimenter")
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(dep.Platform.Access.Handler())
	defer srv.Close()
	stop := make(chan struct{})
	defer close(stop)
	go batterylab.DriveBuilds(clock, dep.Platform, stop)

	client, err := remote.Dial(srv.URL, token)
	if err != nil {
		log.Fatal(err)
	}

	// One browser run: the build saves its full power trace server-side
	// as the current.trace artifact.
	ctx := context.Background()
	sess, err := client.StartExperiment(ctx, api.ExperimentSpec{
		Node: dep.NodeName, Device: dep.DeviceSerial,
		Monitor: api.MonitorSpec{SampleRateHz: 1000},
		Workload: api.WorkloadSpec{
			Name:   "browser",
			Params: api.Params{"browser": "Brave", "pages": 2, "scrolls": 4},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("build %d finished: %d samples, %.4f mAh\n",
		sess.Build(), res.Current.Len(), res.EnergyMAH)

	// The rollup: every aggregate over the whole trace, computed where
	// the artifact lives. The energy integral is bit-identical to the
	// run summary — same aggregators, same order.
	rollup, err := client.Analytics(ctx, sess.Build(), api.AnalyticsQuery{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollup: mean %.2f mA, p50 %.2f, p95 %.2f, energy %.4f mAh (bit-identical: %v)\n",
		*rollup.Total.MeanMA, *rollup.Total.P50MA, *rollup.Total.P95MA,
		*rollup.Total.EnergyMAH, *rollup.Total.EnergyMAH == res.EnergyMAH)

	// Windowed: one bucket per 2 s of the run, only the fields asked
	// for. A dashboard plots this — kilobytes instead of the trace.
	query := api.AnalyticsQuery{WindowNS: int64(2 * time.Second), Fields: []string{"mean", "energy"}}
	windowed, err := client.Analytics(ctx, sess.Build(), query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windowed: %d buckets of %s\n", len(windowed.Buckets), 2*time.Second)
	for _, b := range windowed.Buckets[:3] {
		fmt.Printf("  [%4.1fs, %4.1fs) mean %7.2f mA, energy %.5f mAh (%d samples)\n",
			time.Duration(b.StartNS).Seconds(), time.Duration(b.EndNS).Seconds(),
			*b.MeanMA, *b.EnergyMAH, b.Samples)
	}

	// Repeat the query: the server memoizes the marshaled body, so the
	// second answer is a cache hit — the same bytes, no artifact decode.
	again, err := client.Analytics(ctx, sess.Build(), query)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := json.Marshal(windowed)
	b, _ := json.Marshal(again)
	fmt.Printf("repeat query bit-identical: %v\n", bytes.Equal(a, b))

	// The CSV export: a header row, then one row per sample.
	csv, err := client.Artifact(ctx, sess.Build(), "current.csv")
	if err != nil {
		log.Fatal(err)
	}
	rows := bytes.Count(csv, []byte("\n")) - 1
	fmt.Printf("current.csv: %d rows, one per sample: %v\n", rows, rows == res.Current.Len())

	// Output:
	// build 1 finished: 33499 samples, 2.0557 mAh
	// rollup: mean 220.92 mA, p50 183.70, p95 363.60, energy 2.0557 mAh (bit-identical: true)
	// windowed: 17 buckets of 2s
	//   [ 0.0s,  2.0s) mean  231.58 mA, energy 0.12860 mAh (2000 samples)
	//   [ 2.0s,  4.0s) mean  281.93 mA, energy 0.15654 mAh (2000 samples)
	//   [ 4.0s,  6.0s) mean  217.83 mA, energy 0.12095 mAh (2000 samples)
	// repeat query bit-identical: true
	// current.csv: 33499 rows, one per sample: true
}
