package remote_test

// The one stream follower under scripted upstreams: a clean end is the
// feed closing, a broken end resumes from the cursor after one status
// read checked against the epoch pinned before the first open — for a
// session, the federation relay and the feed gateway alike.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"batterylab"
	"batterylab/internal/accessserver/feedgw"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
)

// feedStep is one connection to the scripted sample route: the feed
// incarnation it serves (its epoch and points), from the request's
// cursor up to point cut — then the connection is aborted — or, when
// cut is negative, to the end of the points and a clean end.
type feedStep struct {
	epoch int
	pts   []api.SamplePoint
	cut   int
}

// scriptedUpstream is an access server reduced to one build, id 1, whose
// sample feed is scripted connection by connection: what no real server
// does on cue — start at a feed epoch past 0, cut a stream at a chosen
// point, move the epoch between two connections. Status reads report
// the epoch of the step the next connection will serve, and the state
// stays "running" until a connection ends clean (the feed closed), then
// turns to a terminal failure. The event route carries no events and
// ends clean when the feed closes.
type scriptedUpstream struct {
	steps []feedStep // the last one repeats
	*httptest.Server

	mu     sync.Mutex
	conns  int      // sample connections ended so far
	ids    []string // the X-Request-Id of each sample connection
	closed chan struct{}
}

func newScriptedUpstream(t *testing.T, steps ...feedStep) *scriptedUpstream {
	t.Helper()
	up := &scriptedUpstream{steps: steps, closed: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"build":1,"state":"queued"}`)
	})
	mux.HandleFunc("GET /api/v1/builds/1", func(w http.ResponseWriter, r *http.Request) {
		st := api.BuildStatus{ID: 1, State: "running", FeedEpoch: up.step().epoch}
		select {
		case <-up.closed:
			st.State, st.Error = "failure", "scripted run over"
		default:
		}
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /api/v1/builds/1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		select {
		case <-up.closed:
		case <-r.Context().Done():
		}
	})
	mux.HandleFunc("GET /api/v1/builds/1/samples", up.serveSamples)
	up.Server = httptest.NewServer(mux)
	t.Cleanup(up.Close)
	return up
}

// step is the step the next sample connection serves.
func (up *scriptedUpstream) step() feedStep {
	up.mu.Lock()
	defer up.mu.Unlock()
	return up.steps[min(up.conns, len(up.steps)-1)]
}

func (up *scriptedUpstream) serveSamples(w http.ResponseWriter, r *http.Request) {
	up.mu.Lock()
	up.ids = append(up.ids, r.Header.Get("X-Request-Id"))
	up.mu.Unlock()
	st := up.step()
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	end := len(st.pts)
	if st.cut >= 0 {
		end = st.cut
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	for i := from; i < end; i++ {
		api.WriteSampleFrame(w, st.pts[i:i+1])
	}
	w.(http.Flusher).Flush()
	up.mu.Lock()
	up.conns++
	up.mu.Unlock()
	if st.cut >= 0 {
		panic(http.ErrAbortHandler)
	}
	select {
	case <-up.closed:
	default:
		close(up.closed)
	}
}

// incarnation returns n points whose currents start at base, so the
// points of two incarnations tell apart.
func incarnation(base float64, n int) []api.SamplePoint {
	pts := make([]api.SamplePoint, n)
	for i := range pts {
		pts[i] = api.SamplePoint{AtNS: int64(i+1) * int64(time.Millisecond), CurrentMA: base + float64(i)}
	}
	return pts
}

// currents lists the points' currents.
func currents(pts []api.SamplePoint) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.CurrentMA
	}
	return out
}

var scriptedRetry = remote.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

// followSession runs a session against up and returns the currents its
// observers saw, the session and its client.
func followSession(t *testing.T, up *scriptedUpstream) ([]float64, *remote.Session, *remote.Platform) {
	t.Helper()
	client, err := remote.Dial(up.URL, "tok")
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(scriptedRetry)
	var mu sync.Mutex
	var seen []float64
	sess, err := client.StartExperiment(nil, api.ExperimentSpec{Node: "node1", Device: "dev1", Workload: api.WorkloadSpec{Name: "idle"}},
		batterylab.ObserverFuncs{Sample: func(s batterylab.Sample) { mu.Lock(); seen = append(seen, s.CurrentMA); mu.Unlock() }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(nil); err == nil || err.Error() != "remote: build 1 failed: scripted run over" {
		t.Fatalf("session ended with %v, want the scripted failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return seen, sess, client
}

// TestStreamPinsEpoch: the server recovered before the follower's first
// connection, so the feed is already at epoch 1 when the follow begins,
// and the sample stream is cut mid-way. The epoch pinned before the
// first open is the one the status read after the cut reports, so the
// follower resumes from its cursor: each sample reaches the observers
// once, and the live aggregate counts what they saw. The reconnect
// carries the follow's one X-Request-Id.
func TestStreamPinsEpoch(t *testing.T) {
	pts := incarnation(100, 10)
	up := newScriptedUpstream(t, feedStep{epoch: 1, pts: pts, cut: 4}, feedStep{epoch: 1, pts: pts, cut: -1})
	seen, sess, client := followSession(t, up)
	if want := currents(pts); !reflect.DeepEqual(seen, want) {
		t.Fatalf("observers saw %v, want each sample once: %v", seen, want)
	}
	if n := sess.Live().N; n != len(seen) {
		t.Fatalf("Live().N = %d, observers saw %d", n, len(seen))
	}
	if r := client.Stats().EpochResets; r != 0 {
		t.Fatalf("%d epoch resets on a feed whose epoch never moved", r)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if len(up.ids) != 2 || up.ids[0] == "" || up.ids[1] != up.ids[0] {
		t.Fatalf("sample connections carried X-Request-Id %q, want one id on both", up.ids)
	}
}

// relaySink records what a federation relay hands home.
type relaySink struct {
	mu  sync.Mutex
	pts []api.SamplePoint
}

func (s *relaySink) Event(api.BuildEvent) {}
func (s *relaySink) Sample(p api.SamplePoint) {
	s.mu.Lock()
	s.pts = append(s.pts, p)
	s.mu.Unlock()
}
func (s *relaySink) Artifact(string, []byte) {}

// TestFollowEpochMoves runs each follower over one script: the sample
// stream is cut inside the feed's first incarnation, and the status
// read after the cut finds the epoch moved (the server restarted and
// recovered the build). A session resets once and delivers the new
// incarnation exactly once; the gateway, which has already passed the
// old records on, aborts its client; the relay's sink receives the new
// incarnation after what it had.
func TestFollowEpochMoves(t *testing.T) {
	old, fresh := incarnation(100, 6), incarnation(200, 8)
	script := []feedStep{{epoch: 0, pts: old, cut: 3}, {epoch: 1, pts: fresh, cut: -1}}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, up *scriptedUpstream)
	}{
		{"session", func(t *testing.T, up *scriptedUpstream) {
			seen, sess, client := followSession(t, up)
			if r := client.Stats().EpochResets; r != 1 {
				t.Fatalf("EpochResets = %d, want 1", r)
			}
			if want := append(currents(old[:3]), currents(fresh)...); !reflect.DeepEqual(seen, want) {
				t.Fatalf("observers saw %v, want the old prefix then the new incarnation once: %v", seen, want)
			}
			if n := sess.Live().N; n != len(fresh) {
				t.Fatalf("Live().N = %d, want the new incarnation's %d", n, len(fresh))
			}
		}},
		{"gateway", func(t *testing.T, up *scriptedUpstream) {
			gw := feedgw.New(up.URL)
			gw.SetRetryPolicy(scriptedRetry)
			gts := httptest.NewServer(gw.Handler())
			defer gts.Close()
			body, err := getBody(gts.URL + "/api/v1/builds/1/samples")
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("client body read ended with %v, want io.ErrUnexpectedEOF", err)
			}
			if got := currents(decodeFrames(t, body)); !reflect.DeepEqual(got, currents(old[:3])) {
				t.Fatalf("client received %v before the abort, want the old prefix %v", got, currents(old[:3]))
			}
		}},
		{"relay", func(t *testing.T, up *scriptedUpstream) {
			sink := &relaySink{}
			st, err := remote.Relay(context.Background(), up.URL, "tok", api.ExperimentSpec{}, sink)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != "failure" {
				t.Fatalf("relay returned state %q, want the scripted terminal failure", st.State)
			}
			if want := append(currents(old[:3]), currents(fresh)...); !reflect.DeepEqual(currents(sink.pts), want) {
				t.Fatalf("sink received %v, want the old prefix then the new incarnation: %v", currents(sink.pts), want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newScriptedUpstream(t, script...))
		})
	}
}

// TestGatewayAbortsShortStream: the upstream severs every stream
// attempt, and the gateway's budget of two runs out. Its client must
// read a broken stream — io.ErrUnexpectedEOF — not a clean end on a
// stream that is missing its tail.
func TestGatewayAbortsShortStream(t *testing.T) {
	pts := incarnation(100, 5)
	up := newScriptedUpstream(t, feedStep{pts: pts, cut: 2})
	gw := feedgw.New(up.URL)
	gw.SetRetryPolicy(remote.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond})
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()
	body, err := getBody(gts.URL + "/api/v1/builds/1/samples")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("client body read ended with %v, want io.ErrUnexpectedEOF", err)
	}
	if got := currents(decodeFrames(t, body)); !reflect.DeepEqual(got, currents(pts[:2])) {
		t.Fatalf("client received %v, want the %v the upstream sent", got, currents(pts[:2]))
	}
	if m, _ := gw.MetricsRegistry().Snapshot().Get("blab_feedgw_reconnects_total"); m.Value != 1 {
		t.Fatalf("blab_feedgw_reconnects_total = %v, want the one reconnect a budget of two allows", m.Value)
	}
}

// getBody GETs url and returns the body with the error that ended it.
func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// TestFollowStatusReads counts build-status reads on the clean path: a
// session reads once to pin the epoch and once for the terminal state,
// and a gateway stream once, to pin the epoch.
func TestFollowStatusReads(t *testing.T) {
	l := newLab(t)
	client, proxy := serveFlaky(t, l, 0, 0, true)
	sess, err := client.StartExperiment(nil, idleSpec(l), core.ObserverFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(nil); err != nil {
		t.Fatal(err)
	}
	status := fmt.Sprintf("GET /api/v1/builds/%d", sess.Build())
	if n := proxy.requests(status); n != 2 {
		t.Fatalf("a clean session read its build status %d times, want 2", n)
	}

	token, err := batterylab.NewAPIToken(l.plat, "gw-reads", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(feedgw.New(client.BaseURL()).Handler())
	defer gts.Close()
	if st, _ := get(t, fmt.Sprintf("%s/api/v1/builds/%d/samples", gts.URL, sess.Build()), token); st != 200 {
		t.Fatalf("gateway samples: status %d", st)
	}
	if n := proxy.requests(status) - 2; n != 1 {
		t.Fatalf("a clean gateway stream read the build status upstream %d times, want 1", n)
	}
}
