// Command blab-run submits one battery measurement and prints the
// results — the quickest way to ask the paper's §4.2 question for a
// single browser. By default it assembles an in-process simulated
// deployment; with -server it submits the same declarative spec to a
// remote access server's v1 API and streams the run back, printing
// identical output — the backend is location-transparent.
//
//	blab-run -browser Brave
//	blab-run -browser Chrome -mirror -vpn Bunkyo -pages 5 -out trace.csv
//	blab-run -browser Brave -out trace.bin   # compact binary trace (v3)
//	blab-run -video            # the §4.1 playback workload instead
//	blab-run -server http://127.0.0.1:9090 -token $TOKEN -browser Brave -pages 2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"batterylab"
)

func main() {
	var (
		browserName = flag.String("browser", "Brave", "study browser (Brave, Chrome, Edge, Firefox)")
		videoMode   = flag.Bool("video", false, "run the mp4 playback workload instead of browsing")
		mirror      = flag.Bool("mirror", false, "activate device mirroring during the run")
		vpnLoc      = flag.String("vpn", "", "VPN exit location (e.g. Bunkyo); empty = direct")
		pages       = flag.Int("pages", 10, "pages to visit")
		scrolls     = flag.Int("scrolls", 8, "scrolls per page")
		rate        = flag.Int("rate", 1000, "monitor sample rate (Hz)")
		seed        = flag.Uint64("seed", 2019, "simulation seed (local backend only)")
		out         = flag.String("out", "", "write the current trace here (.csv = text, anything else = binary v3, about 1 byte a sample)")
		progress    = flag.Bool("progress", false, "print session phase transitions")
		server      = flag.String("server", "", "access server base URL; empty = in-process simulation")
		token       = flag.String("token", "", "API token for -server")
		nodeName    = flag.String("node", "", "target vantage point (default: the backend's first)")
		deviceSer   = flag.String("device", "", "target device serial (default: the node's first)")
	)
	flag.Parse()

	// Ctrl-C cancels the session: the VPN, mirroring pipeline and monitor
	// are torn down in order before exit — locally or on the server.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var backend batterylab.Backend
	if *server != "" {
		var err error
		backend, err = batterylab.RemoteBackend(*server, *token)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		clock := batterylab.VirtualClock()
		dep, err := batterylab.NewDeployment(clock, batterylab.DeploymentConfig{
			Seed:      *seed,
			VideoPath: "/sdcard/blab.mp4",
		})
		if err != nil {
			log.Fatal(err)
		}
		backend = batterylab.LocalBackend(dep.Platform)
	}

	// Resolve the target vantage point and device against the backend —
	// the same discovery call locally and remotely.
	node, device := *nodeName, *deviceSer
	if node == "" || device == "" {
		nodes, err := backend.Nodes(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if node == "" {
			if len(nodes) == 0 {
				log.Fatal("no vantage points available")
			}
			node = nodes[0].Name
		}
		if device == "" {
			found := false
			for _, n := range nodes {
				if n.Name != node {
					continue
				}
				found = true
				if len(n.Devices) > 0 {
					device = n.Devices[0]
				}
			}
			switch {
			case !found:
				names := make([]string, 0, len(nodes))
				for _, n := range nodes {
					names = append(names, n.Name)
				}
				log.Fatalf("unknown vantage point %q (have %s)", node, strings.Join(names, ", "))
			case device == "":
				log.Fatalf("vantage point %s has no devices", node)
			}
		}
	}

	// The declarative v1 spec: a named registry workload plus params,
	// instead of an in-process closure.
	spec := batterylab.ExperimentSpecV1{
		Node:        node,
		Device:      device,
		Monitor:     batterylab.MonitorSpec{SampleRateHz: *rate},
		Mirroring:   *mirror,
		VPNLocation: *vpnLoc,
	}
	label := *browserName
	if *videoMode {
		label = "video playback"
		spec.Workload = batterylab.WorkloadSpec{Name: "video"}
	} else {
		spec.Workload = batterylab.WorkloadSpec{
			Name: "browser",
			Params: batterylab.Params{
				"browser": *browserName,
				"pages":   min(*pages, 10),
				"scrolls": *scrolls,
			},
		}
	}

	var obs []batterylab.Observer
	if *progress {
		samplesSeen := 0
		obs = append(obs, batterylab.ObserverFuncs{
			Phase: func(e batterylab.PhaseChange) {
				if e.Step != "" {
					fmt.Printf("  [%s] step %s\n", e.At.Format("15:04:05"), e.Step)
					return
				}
				fmt.Printf("  [%s] %s\n", e.At.Format("15:04:05"), e.Phase)
			},
			Sample: func(s batterylab.Sample) {
				// The streaming summary rides along on every live sample;
				// print one line every 30 samples.
				if samplesSeen++; samplesSeen%30 == 0 && s.Live.N > 0 {
					fmt.Printf("  [%s] live: n=%d mean=%.1f mA p95=%.1f mA %.2f mAh\n",
						s.At.Format("15:04:05"), s.Live.N, s.Live.Mean,
						s.Live.P95, s.Live.IntegralSeconds/3600)
				}
			},
		})
	}

	start := time.Now()
	sess, err := backend.StartExperimentSpec(ctx, spec, obs...)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}

	cdf, err := res.Current.CDF()
	if err != nil {
		log.Fatal(err)
	}
	where := "in-process simulation"
	if *server != "" {
		where = *server
	}
	fmt.Printf("backend     : %s\n", where)
	fmt.Printf("workload    : %s (mirroring=%v, vpn=%q) on %s/%s\n", label, *mirror, *vpnLoc, node, device)
	fmt.Printf("measured    : %s of device time in %s of wall time\n",
		res.Duration.Round(time.Second), time.Since(start).Round(time.Millisecond))
	fmt.Printf("samples     : %d at %d Hz\n", res.Current.Len(), *rate)
	fmt.Printf("current     : p50=%.1f mA  p90=%.1f mA  mean=%.1f mA\n",
		cdf.Median(), cdf.Quantile(0.9), res.Current.Summary().Mean)
	fmt.Printf("discharge   : %.2f mAh\n", res.EnergyMAH)
	fmt.Printf("device CPU  : p50=%.1f %%\n", res.DeviceCPU.Summary().Median)
	fmt.Printf("ctl CPU     : p50=%.1f %%\n", res.ControllerCPU.Summary().Median)
	if *mirror {
		fmt.Printf("stream      : %.1f MB uploaded\n", float64(res.MirrorUploadBytes)/1e6)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if strings.EqualFold(filepath.Ext(*out), ".csv") {
			err = res.Current.WriteCSV(f)
		} else {
			err = res.Current.WriteBinary(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace       : %s\n", *out)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
