package core_test

// The client's Result over the stored rollup: the energy a run reports
// is the summary the server stored of the bytes it stored, through the
// in-process port and through the HTTP one alike, and the bytes' own
// fold wherever that summary is not those bytes' rollup.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
	"batterylab/internal/trace"
)

const clusterToken = "cluster-secret"

// TestResultAdoptsStoredRollup: a run measured here takes its EnergyMAH
// from the stored summary, which here is deliberately not the bytes'
// (42 mAh), so where the energy comes from shows. A relayed build (whose
// peer states the same 42 mAh rollup), a summary without the Rollup
// mark and one that counts a sample more than the trace holds each fold
// the decoded trace instead.
func TestResultAdoptsStoredRollup(t *testing.T) {
	const wrong = 42.0
	ctx := context.Background()
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		t.Fatal(err)
	}
	_, dev, _, err := batterylab.NewVantagePoint(clock, plat, batterylab.VantagePointConfig{Name: "node1", Seed: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Runs go one at a time; each is compiled with the edit of its case.
	var mu sync.Mutex
	var edit func(*api.RunSummary)
	plat.Access.SetSpecBackend(core.SummaryBackend(plat, func(api.ExperimentSpec) func(*api.RunSummary) {
		mu.Lock()
		defer mu.Unlock()
		return edit
	}))
	// The peer relays the bytes of the first run measured here, under a
	// rollup that counts them and states the wrong energy.
	var relayed map[string][]byte
	plat.Access.SetPeerRelay(func(_ context.Context, _, _ string, _ api.ExperimentSpec, sink api.RelaySink) (*api.BuildStatus, error) {
		for name, data := range relayed {
			sink.Artifact(name, data)
		}
		s, err := trace.DecodeBinary(relayed[core.ArtifactCurrentTrace])
		if err != nil {
			return nil, err
		}
		sum := api.NewRunSummary(s.Live())
		sum.EnergyMAH, sum.Rollup = wrong, true
		return &api.BuildStatus{ID: 7, State: accessserver.StateSuccess.String(), Summary: &sum}, nil
	})
	plat.Access.ConfigureCluster("east", "http://east.example", clusterToken)

	ts := httptest.NewServer(plat.Access.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(ts.CloseClientConnections)
	token, err := batterylab.NewAPIToken(plat, "alice", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	client, err := remote.Dial(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	ports := []struct {
		name string
		run  func(api.ExperimentSpec) (*core.Experiment, error)
	}{
		{"in-process", func(ws api.ExperimentSpec) (*core.Experiment, error) { return plat.StartExperimentSpec(ctx, ws) }},
		{"HTTP", func(ws api.ExperimentSpec) (*core.Experiment, error) { return client.StartExperiment(ctx, ws) }},
	}
	for _, port := range ports {
		if port.name == "HTTP" { // nobody drives the server's clock for an HTTP client
			stop := make(chan struct{})
			go batterylab.DriveBuilds(clock, plat, stop)
			defer close(stop)
		}
		for _, c := range []struct {
			name  string
			node  string
			edit  func(*api.RunSummary)
			adopt bool
		}{
			{"measured here", "node1", func(s *api.RunSummary) { s.EnergyMAH = wrong }, true},
			{"unmarked", "node1", func(s *api.RunSummary) { s.EnergyMAH, s.Rollup = wrong, false }, false},
			{"miscounted", "node1", func(s *api.RunSummary) { s.EnergyMAH, s.Samples = wrong, s.Samples+1 }, false},
			{"relayed", "node9", nil, false},
		} {
			ws := api.ExperimentSpec{
				Node: c.node, Device: dev.Serial(),
				Monitor:  api.MonitorSpec{SampleRateHz: 500},
				Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 3000}},
			}
			var release func()
			if c.node == "node9" {
				ws.Device = "dev9"
				// The peer announces itself at each submission (the runs
				// before took longer than a peer stays online unheard
				// from), and the clock stands still until the relay has
				// settled the build: the peer sends no heartbeat while
				// it runs.
				announce(t, ts.URL)
				release = clock.Hold()
			}
			mu.Lock()
			edit = c.edit
			mu.Unlock()
			x, err := port.run(ws)
			if err != nil {
				t.Fatalf("%s, %s: %v", port.name, c.name, err)
			}
			b, err := plat.Access.Build(x.Build())
			if err != nil {
				t.Fatal(err)
			}
			if release != nil {
				for deadline := time.Now().Add(10 * time.Second); !b.State().Terminal() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				release()
			}
			res, err := x.Wait(ctx)
			if err != nil {
				t.Fatalf("%s, %s: %v", port.name, c.name, err)
			}
			if relayed == nil {
				relayed = make(map[string][]byte)
				for _, name := range []string{core.ArtifactCurrentTrace, core.ArtifactDeviceCPU, core.ArtifactControllerCPU} {
					if relayed[name], err = b.Workspace().Load(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			st, err := plat.Access.BuildStatus(b.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Summary == nil || st.Summary.EnergyMAH != wrong || (st.RoutedVia != "") != (c.node == "node9") {
				t.Fatalf("%s, %s: stored summary %+v routed via %q", port.name, c.name, st.Summary, st.RoutedVia)
			}
			data, err := b.Workspace().Load(core.ArtifactCurrentTrace)
			if err != nil {
				t.Fatal(err)
			}
			s, err := trace.DecodeBinary(data)
			if err != nil {
				t.Fatal(err)
			}
			want := s.EnergyMAH()
			if c.adopt {
				want = wrong
			}
			if math.Float64bits(res.EnergyMAH) != math.Float64bits(want) || want == wrong && s.EnergyMAH() == wrong {
				t.Errorf("%s, %s: EnergyMAH %v, want %v (the trace's fold is %v)", port.name, c.name, res.EnergyMAH, want, s.EnergyMAH())
			}
		}
	}
}

// announce posts peer west's heartbeat, advertising node9 with device
// dev9, to the server at base.
func announce(t *testing.T, base string) {
	t.Helper()
	body, err := json.Marshal(api.PeerAnnounce{Name: "west", URL: "http://west.example", Nodes: []api.PeerNode{
		{Name: "node9", Health: api.HealthOnline, Devices: []string{"dev9"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/cluster/peers", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+clusterToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("announce: %s", resp.Status)
	}
}
