package batterylab_test

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"batterylab"
)

// Usability tour: BatteryLab's remote-control path (§3.2). A
// device-mirroring session whose noVNC-style GUI backend is served over
// real HTTP, driven by real POSTs — the pipeline a crowdsourced tester's
// browser would use — plus the §4.2 click-to-photon latency measurement.
func Example_usability() {
	clock := batterylab.VirtualClock()
	dep, err := batterylab.NewDeployment(clock, batterylab.DeploymentConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	ctl, serial := dep.Controller, dep.DeviceSerial

	// Mirroring needs ADB; arm the WiFi transport like a measurement
	// session would.
	if err := ctl.ADB().EnableTCPIP(serial); err != nil {
		log.Fatal(err)
	}
	if _, err := ctl.Exec("adb_transport", serial, "wifi"); err != nil {
		log.Fatal(err)
	}

	// Activate mirroring via the Table 1 API and serve the GUI backend.
	if _, err := ctl.DeviceMirroring(serial); err != nil {
		log.Fatal(err)
	}
	sess, err := ctl.MirrorSession(serial)
	if err != nil {
		log.Fatal(err)
	}
	gui := httptest.NewServer(sess.GUIHandler())
	defer gui.Close()
	fmt.Printf("mirroring %s; GUI backend served over HTTP\n", serial)

	// A tester interacts through the browser: launch Brave by package,
	// type a URL, scroll — all through the GUI's REST input endpoint.
	prof, _ := batterylab.FindBrowserProfile("Brave")
	if _, err := ctl.ExecuteADB(serial, "am start -n "+prof.Package+"/.Main"); err != nil {
		log.Fatal(err)
	}
	inputs := []string{
		`{"type":"text","text":"bbc.com"}`,
		`{"type":"scroll","down":true}`,
		`{"type":"scroll","down":false}`,
		`{"type":"tap","x":360,"y":640}`,
	}
	for _, body := range inputs {
		resp, err := http.Post(gui.URL+"/api/input", "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("input %s: %s", body, resp.Status)
		}
		// Let the device render between events.
		dep.RunFor(2 * time.Second)
	}

	// Stream accounting: the agent has been encoding all along.
	dep.RunFor(30 * time.Second)
	resp, err := http.Get(gui.URL + "/api/session")
	if err != nil {
		log.Fatal(err)
	}
	state, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("session state: %s", state)

	// The §4.2 responsiveness measurement: 40 co-located trials.
	probe := batterylab.NewLatencyProbe(3, time.Millisecond)
	samples := probe.Measure(40)
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	fmt.Printf("click-to-photon latency over %d trials: %.2f s (paper: 1.44 s)\n",
		len(samples), mean)

	// Output:
	// mirroring J7DUO000001; GUI backend served over HTTP
	// session state: {"active":true,"bytes_in":445000,"bytes_out":378244,"device":"J7DUO000001"}
	// click-to-photon latency over 40 trials: 1.38 s (paper: 1.44 s)
}
