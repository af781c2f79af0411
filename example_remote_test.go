package batterylab_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"batterylab"
)

// Remote execution tour: serve a simulated BatteryLab deployment over
// the v1 HTTP API, connect the location-transparent client to it, and
// run the same declarative spec remotely and, on a twin deployment,
// locally. Code written against batterylab.Backend does not care where
// the hardware lives, and one handle reads the settled build over either
// port: the two outcome lines are identical, bit for bit.
func ExampleRemoteBackend() {
	// The "lab": one simulated vantage point on a virtual clock, its
	// access server behind an HTTP listener.
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

	// The server owns simulated time: DriveBuilds advances the virtual
	// clock while builds are in flight (a real deployment runs on the
	// real clock and needs none of this).
	stop := make(chan struct{})
	defer close(stop)
	go batterylab.DriveBuilds(clock, dep.Platform, stop)

	// The "experimenter": a remote client that only knows the server's
	// URL and a token. The spec is pure data — node, device, a named
	// workload and its parameters.
	backend, err := batterylab.RemoteBackend(srv.URL, token)
	if err != nil {
		log.Fatal(err)
	}
	spec := batterylab.ExperimentSpecV1{
		Node:    dep.NodeName,
		Device:  dep.DeviceSerial,
		Monitor: batterylab.MonitorSpec{SampleRateHz: 1000},
		Workload: batterylab.WorkloadSpec{
			Name:   "browser",
			Params: batterylab.Params{"browser": "Brave", "pages": 2, "scrolls": 4},
		},
	}
	ctx := context.Background()
	sess, err := backend.StartExperimentSpec(ctx, spec, batterylab.ObserverFuncs{
		Phase: func(e batterylab.PhaseChange) {
			if e.Step == "" {
				fmt.Printf("  phase: %s\n", e.Phase)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote:", outcome(sess))

	// The control: the identical spec on an identical deployment, in
	// this process, through the same Backend interface.
	twin, err := batterylab.NewDeployment(batterylab.VirtualClock(), batterylab.DeploymentConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	x, err := batterylab.LocalBackend(twin.Platform).StartExperimentSpec(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("local: ", outcome(x))
	// Output:
	//   phase: transport-armed
	//   phase: monitor-armed
	//   phase: workload
	//   phase: settle
	//   phase: done
	// remote: 2.0557 mAh over 33.5s (33499 samples)
	// local:  2.0557 mAh over 33.5s (33499 samples)
}

// outcome waits for a run and describes its measurement.
func outcome(x batterylab.ExperimentHandle) string {
	res, err := x.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return fmt.Sprintf("%.4f mAh over %s (%d samples)", res.EnergyMAH, res.Duration, res.Current.Len())
}
