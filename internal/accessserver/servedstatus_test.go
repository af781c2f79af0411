package accessserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// FuzzStatusBytes: a published status is served from its cached
// encoding with the live drop counters spliced in. The response must be
// the one writeJSON gives for the merged status — json.Marshal's bytes
// plus '\n' — on the first read, which encodes, and on the next, which
// does not. A campaign body must be json.Marshal of its
// api.CampaignStatus plus '\n'.
func FuzzStatusBytes(f *testing.F) {
	f.Add(7, "nightly", "alice", "running", 3, false, true, "", true,
		int64(1200), 120.5, 118.0, 190.25, 3.5, int64(2e9), int64(0), int64(4),
		"node1", 2, "", 0.75, int64(0), int64(0), false, 0,
		"", "", int64(1_700_000_000_000_000_000), int64(1_700_000_001_000_000_000), int64(0), uint8(3))
	f.Add(1, "<job>&\"q\"", "o w", "queued", 0, true, false, "bad \xff utf-8\n", false,
		int64(0), 0.0, 0.0, 0.0, 0.0, int64(0), int64(0), int64(0),
		"", 0, "device busy <dev1>", 0.0, int64(9), int64(0), true, 3,
		"peer-b", "home&a", int64(-1), int64(0), int64(1), uint8(1))
	f.Add(-5, "", "", "", -1, false, false, "", true,
		int64(-1), math.Inf(1), 0.0, 0.0, 0.0, int64(0), int64(-7), int64(0),
		"n", 0, "", math.NaN(), int64(0), int64(-3), false, -1,
		"", "", int64(0), int64(0), int64(0), uint8(2))
	f.Fuzz(func(t *testing.T, id int, job, owner, state string, campaign int, canceled, nodeLost bool, errMsg string,
		hasSummary bool, samples int64, mean, p50, p95, energy float64, durNS, mirror, droppedLive int64,
		node string, attempts int, pending string, score float64, droppedEvents, droppedSamples int64,
		recovered bool, epoch int, routedVia, home string, queuedAt, startedAt, finishedAt int64, marks uint8) {
		merged := api.BuildStatus{
			ID: id, Job: job, Owner: owner, State: state, Campaign: campaign,
			Canceled: canceled, NodeLost: nodeLost, Error: errMsg,
			Node: node, Attempts: attempts, PendingReason: pending, PlacementScore: score,
			DroppedEvents: droppedEvents, DroppedSamples: droppedSamples,
			Recovered: recovered, FeedEpoch: epoch, RoutedVia: routedVia, HomeServer: home,
			QueuedAtNS: queuedAt, StartedAtNS: startedAt, FinishedAtNS: finishedAt,
		}
		if hasSummary {
			merged.Summary = &api.RunSummary{
				Samples: samples, MeanMA: mean, P50MA: p50, P95MA: p95, EnergyMAH: energy,
				DurationNS: durNS, MirrorUploadBytes: mirror, DroppedLiveSamples: droppedLive,
				Rollup: marks&1 != 0, ExactQuantiles: marks&2 != 0,
			}
		}
		// The published version carries the counters as of its publish;
		// the served ones are read live, so these must not leak through.
		published := merged
		published.DroppedEvents, published.DroppedSamples = droppedSamples+1, droppedEvents-1
		ss := &servedStatus{st: published}
		want, err := json.Marshal(merged)
		for read := 0; read < 2; read++ {
			got := httptest.NewRecorder()
			writeStatus(got, ss, droppedEvents, droppedSamples)
			ref := httptest.NewRecorder()
			writeJSON(ref, http.StatusOK, merged)
			if got.Code != ref.Code || !reflect.DeepEqual(got.Header(), ref.Header()) || !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
				t.Fatalf("read %d served %d %v %q, writeJSON gives %d %v %q",
					read, got.Code, got.Header(), got.Body, ref.Code, ref.Header(), ref.Body)
			}
			if err == nil && !bytes.Equal(got.Body.Bytes(), append(want, '\n')) {
				t.Fatalf("read %d served %q, json.Marshal gives %q", read, got.Body, want)
			}
		}

		// A campaign: the fuzzed member, an expired one and the fuzzed
		// status with no drops, then the same campaign with no members.
		quiet := merged
		quiet.DroppedEvents, quiet.DroppedSamples = 0, 0
		members := []*servedStatus{ss, expiredStatus(id + 1), ss}
		drops := [][2]int64{{droppedEvents, droppedSamples}, {}, {}}
		body, err := campaignBody(campaign, []int{0, 1, 2}, func(i int) (*servedStatus, int64, int64) {
			return members[i], drops[i][0], drops[i][1]
		})
		want, wantErr := json.Marshal(api.CampaignStatus{Campaign: campaign, Builds: []api.BuildStatus{
			merged, {ID: id + 1, State: api.StateExpired}, quiet,
		}})
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("campaign body %q (%v), json.Marshal gives %q (%v)", body, err, want, wantErr)
		}
		body, _ = campaignBody(campaign, nil, nil)
		want, _ = json.Marshal(api.CampaignStatus{Campaign: campaign})
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("empty campaign body %q, json.Marshal gives %q", body, want)
		}
	})
}

// TestStatusCacheUnderRepublish: readers poll one build while a section
// republishes it (running, then finished) and retention evicts it, over
// several rounds. A read during which no section replaced the build's
// status must serve exactly that version's bytes, so an encoding cached
// for an earlier version can never be served after a republish. Every
// body is a published version or the expired marker, and no reader sees
// the state go backwards.
func TestStatusCacheUnderRepublish(t *testing.T) {
	const rounds, readers, readsPerStep = 20, 4, 20
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 1, Retention: time.Minute})
	srv.SetSpecBackend(slowBackend(clk, time.Second))
	if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	h := srv.Handler()
	publishes := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.reads.buildPublishes
	}
	encode := func(st api.BuildStatus) []byte {
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}
	rank := func(ss *servedStatus) int {
		if ss == nil {
			return stateRank(t, api.StateExpired)
		}
		return stateRank(t, ss.st.State)
	}

	for round := 0; round < rounds; round++ {
		b, err := srv.SubmitSpec(admin, testSpec("node1", "dev1"))
		if err != nil {
			t.Fatal(err)
		}
		if b.State() != StateRunning {
			t.Fatalf("round %d: build %d is %s after submit, want running", round, b.ID, b.State())
		}
		expired := encode(api.BuildStatus{ID: b.ID, State: api.StateExpired})
		// Every version the build is published as while the readers run,
		// recorded by this goroutine: each step below publishes at most
		// one, so none goes unrecorded.
		var (
			mu       sync.Mutex
			versions = [][]byte{encode(srv.reads.builds.get(b.ID).st)}
			// mixed holds the bodies of reads that overlapped a
			// republish or an eviction, checked once versions is whole.
			mixed [][]byte
		)
		var reads atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest("GET", fmt.Sprintf("/api/v1/builds/%d", b.ID), nil)
				req.Header.Set("Authorization", "Bearer "+admin.Token)
				last := -1
				for {
					select {
					case <-stop:
						return
					default:
					}
					before := srv.reads.builds.get(b.ID)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					after := srv.reads.builds.get(b.ID)
					reads.Add(1)
					body := rec.Body.Bytes()
					var st api.BuildStatus
					if rec.Code != http.StatusOK || json.Unmarshal(body, &st) != nil || st.ID != b.ID {
						t.Errorf("build %d: %d %q", b.ID, rec.Code, body)
						return
					}
					r := stateRank(t, st.State)
					switch {
					case before == after && before == nil:
						if !bytes.Equal(body, expired) {
							t.Errorf("build %d evicted, served %q", b.ID, body)
							return
						}
					case before == after:
						if want := encode(before.st); !bytes.Equal(body, want) {
							t.Errorf("build %d: served %q while %q was published", b.ID, body, want)
							return
						}
					case r < rank(before) || r > rank(after):
						t.Errorf("build %d: served state %s during a move from rank %d to %d", b.ID, st.State, rank(before), rank(after))
						return
					default:
						mu.Lock()
						mixed = append(mixed, body)
						mu.Unlock()
					}
					if r < last {
						t.Errorf("build %d: state went backwards (rank %d after %d)", b.ID, r, last)
						return
					}
					last = r
				}
			}()
		}
		// step runs one clock step while the readers poll, then lets them
		// read the result.
		// A reader that failed has stopped, so the wait ends on a failure.
		settle := func() {
			for n := reads.Load() + readsPerStep; reads.Load() < n && !t.Failed(); {
				runtime.Gosched()
			}
		}
		step := func(d time.Duration, wantPublishes int) {
			settle()
			n := publishes()
			clk.Advance(d)
			if got := publishes() - n; got != wantPublishes {
				t.Errorf("round %d: the step published %d versions, want %d", round, got, wantPublishes)
			}
			if ss := srv.reads.builds.get(b.ID); ss != nil {
				mu.Lock()
				versions = append(versions, encode(ss.st))
				mu.Unlock()
			}
			settle()
		}
		step(time.Second, 1) // running -> success
		step(time.Minute, 0) // retention evicts it
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}
		if srv.reads.builds.get(b.ID) != nil {
			t.Fatalf("round %d: build %d still published after retention", round, b.ID)
		}
		for _, body := range mixed {
			if !bytes.Equal(body, expired) && !containsBytes(versions, body) {
				t.Fatalf("build %d: served %q, never published", b.ID, body)
			}
		}
	}
}

func containsBytes(set [][]byte, b []byte) bool {
	for _, s := range set {
		if bytes.Equal(s, b) {
			return true
		}
	}
	return false
}
