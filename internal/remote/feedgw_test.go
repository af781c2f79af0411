package remote_test

// Feed-gateway round trip: a feedgw.Gateway in front of the access
// server must deliver the v1 streaming routes byte-for-byte as a direct
// connection would — including across a mid-relay severed upstream,
// where it resumes from its accumulated ?from= cursor instead of
// surfacing the loss to its client.

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"batterylab/internal/remote"
)

// get fetches a URL with a bearer token and returns status and body.
func get(t *testing.T, url, token string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// decodeFrames decodes a framed binary sample stream into its points.
func decodeFrames(t *testing.T, b []byte) []api.SamplePoint {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	var pts []api.SamplePoint
	for {
		p, err := api.ReadSampleFrame(br)
		if err == io.EOF {
			return pts
		}
		if err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		pts = append(pts, p...)
	}
}

// TestGatewayRoundTrip runs a build to completion, then replays its
// event and sample streams both directly and through a gateway and
// requires bit-identical bytes. A second gateway relays through the
// severing proxy: its upstream connection is cut mid-replay, it
// resumes from the cursor, and the client still ends up with the same
// stream — byte-identical NDJSON (lines are self-delimiting) and
// point-identical samples (frame boundaries may legally differ across
// a resume). A third gateway's upstream is cut in the middle of a frame.
func TestGatewayRoundTrip(t *testing.T) {
	l := newLab(t)
	token, err := batterylab.NewAPIToken(l.plat, "gw-tester", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(l.plat.Access.Handler())
	t.Cleanup(upstream.Close)

	client, err := remote.Dial(upstream.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go batterylab.DriveBuilds(l.clock, l.plat, stop)
	sess, err := client.StartExperiment(nil, idleSpec(l), batterylab.ObserverFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.Build()
	res, err := sess.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current.Len() == 0 {
		t.Fatal("empty trace; nothing to relay")
	}
	eventsPath := fmt.Sprintf("/api/v1/builds/%d/events", id)
	samplesPath := fmt.Sprintf("/api/v1/builds/%d/samples", id)

	dst, directEvents := get(t, upstream.URL+eventsPath, token)
	if dst != 200 {
		t.Fatalf("direct events: status %d", dst)
	}
	dst, directSamples := get(t, upstream.URL+samplesPath, token)
	if dst != 200 {
		t.Fatalf("direct samples: status %d", dst)
	}
	if len(directEvents) == 0 || len(directSamples) == 0 {
		t.Fatal("direct replay is empty")
	}

	// Clean path: gateway bytes must match the direct bytes exactly.
	gw := feedgw.New(upstream.URL)
	gwts := httptest.NewServer(gw.Handler())
	t.Cleanup(gwts.Close)
	st, gwEvents := get(t, gwts.URL+eventsPath, token)
	if st != 200 {
		t.Fatalf("gateway events: status %d", st)
	}
	if !bytes.Equal(gwEvents, directEvents) {
		t.Fatalf("gateway event bytes differ from direct (%d vs %d bytes)", len(gwEvents), len(directEvents))
	}
	st, gwSamples := get(t, gwts.URL+samplesPath, token)
	if st != 200 {
		t.Fatalf("gateway samples: status %d", st)
	}
	if !bytes.Equal(gwSamples, directSamples) {
		t.Fatalf("gateway sample bytes differ from direct (%d vs %d bytes)", len(gwSamples), len(directSamples))
	}

	// Severed path: a second gateway relays through the severing proxy,
	// which cuts each stream's first request after 100 bytes. The sample
	// stream is followed live during a second run, so the cut lands
	// mid-relay; the gateway must reconnect with a positive cursor and
	// its client must not be able to tell.
	proxy := newFlakyProxy(l.plat.Access.Handler(), 0, 100)
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)
	gw2 := feedgw.New(pts.URL)
	gw2.SetRetryPolicy(remote.RetryPolicy{Attempts: 6, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	gwts2 := httptest.NewServer(gw2.Handler())
	t.Cleanup(gwts2.Close)

	sess2, err := client.StartExperiment(nil, idleSpec(l), batterylab.ObserverFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	id2 := sess2.Build()
	samplesPath2 := fmt.Sprintf("/api/v1/builds/%d/samples", id2)
	eventsPath2 := fmt.Sprintf("/api/v1/builds/%d/events", id2)

	type fetched struct {
		st   int
		body []byte
		err  error
	}
	done := make(chan fetched, 1)
	go func() {
		req, err := http.NewRequest("GET", gwts2.URL+samplesPath2, nil)
		if err != nil {
			done <- fetched{err: err}
			return
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- fetched{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- fetched{st: resp.StatusCode, body: b, err: err}
	}()
	if _, err := sess2.Wait(nil); err != nil {
		t.Fatal(err)
	}
	live := <-done
	if live.err != nil || live.st != 200 {
		t.Fatalf("gateway samples via severing proxy: status %d, err %v", live.st, live.err)
	}
	if !proxy.wasCut(samplesPath2) {
		t.Fatal("proxy never severed the sample stream; the resume path went untested")
	}
	froms := proxy.froms(samplesPath2)
	if len(froms) < 2 {
		t.Fatalf("sample stream reached upstream %d times, want >= 2 (gateway reconnect)", len(froms))
	}
	resumed := false
	for _, f := range froms[1:] {
		if n, err := strconv.Atoi(f); err == nil && n > 0 {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no gateway reconnect carried a positive ?from= cursor: %v", froms)
	}
	dst, direct2 := get(t, upstream.URL+samplesPath2, token)
	if dst != 200 {
		t.Fatalf("direct samples for run 2: status %d", dst)
	}
	want := decodeFrames(t, direct2)
	got := decodeFrames(t, live.body)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples across severed relay: %d points, want %d identical points", len(got), len(want))
	}

	st, cutEvents := get(t, gwts2.URL+eventsPath2, token)
	if st != 200 {
		t.Fatalf("gateway events via severing proxy: status %d", st)
	}
	dst, directEvents2 := get(t, upstream.URL+eventsPath2, token)
	if dst != 200 {
		t.Fatalf("direct events for run 2: status %d", dst)
	}
	// NDJSON lines are self-delimiting, so even a severed relay must be
	// byte-identical once reassembled.
	if !bytes.Equal(cutEvents, directEvents2) {
		t.Fatalf("event bytes across severed relay differ from direct (%d vs %d bytes)", len(cutEvents), len(directEvents2))
	}

	// Severed inside a frame: a third gateway's upstream answers the
	// first sample request with one whole frame of k points and half of
	// the next, then drops the connection. Nothing of the half frame may
	// reach the client, the reconnect must ask for exactly ?from=k, and
	// the body is the whole frame followed by what a direct ?from=k
	// connection delivers.
	all := decodeFrames(t, directSamples)
	k := len(all) / 3
	var whole, next bytes.Buffer
	if err := api.WriteSampleFrame(&whole, all[:k]); err != nil {
		t.Fatal(err)
	}
	if err := api.WriteSampleFrame(&next, all[k:]); err != nil {
		t.Fatal(err)
	}
	cutter := &midFrameCut{inner: l.plat.Access.Handler(), path: samplesPath,
		body: append(whole.Bytes(), next.Bytes()[:next.Len()/2]...)}
	cts := httptest.NewServer(cutter)
	t.Cleanup(cts.Close)
	gw3 := feedgw.New(cts.URL)
	gw3.SetRetryPolicy(remote.RetryPolicy{Attempts: 6, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	gwts3 := httptest.NewServer(gw3.Handler())
	t.Cleanup(gwts3.Close)
	st, midCut := get(t, gwts3.URL+samplesPath, token)
	if st != 200 {
		t.Fatalf("gateway samples across a mid-frame cut: status %d", st)
	}
	dst, directTail := get(t, fmt.Sprintf("%s%s?from=%d", upstream.URL, samplesPath, k), token)
	if dst != 200 {
		t.Fatalf("direct samples from %d: status %d", k, dst)
	}
	if want := append(whole.Bytes(), directTail...); !bytes.Equal(midCut, want) {
		t.Fatalf("body across a mid-frame cut: %d bytes, want the %d-byte whole frame plus the %d-byte direct tail", len(midCut), whole.Len(), len(directTail))
	}
	if froms := cutter.froms(); !reflect.DeepEqual(froms, []string{"0", strconv.Itoa(k)}) {
		t.Fatalf("upstream saw ?from= %q, want the first request then exactly %d", froms, k)
	}
}

// midFrameCut fronts the real handler and answers the first request for
// path itself: body, flushed, then an aborted connection.
type midFrameCut struct {
	inner http.Handler
	path  string
	body  []byte

	mu   sync.Mutex
	seen []string // ?from= of each request for path
}

func (c *midFrameCut) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != c.path {
		c.inner.ServeHTTP(w, r)
		return
	}
	c.mu.Lock()
	first := len(c.seen) == 0
	c.seen = append(c.seen, r.URL.Query().Get("from"))
	c.mu.Unlock()
	if !first {
		c.inner.ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(c.body)
	w.(http.Flusher).Flush()
	panic(http.ErrAbortHandler)
}

func (c *midFrameCut) froms() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.seen...)
}

// TestGatewayErrors: the gateway validates cursors locally (typed
// invalid_cursor, no upstream round trip) and passes upstream typed
// errors through verbatim.
func TestGatewayErrors(t *testing.T) {
	l := newLab(t)
	token, err := batterylab.NewAPIToken(l.plat, "gw-errs", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	proxy := newFlakyProxy(l.plat.Access.Handler(), 0, 0)
	upstream := httptest.NewServer(proxy)
	t.Cleanup(upstream.Close)
	gw := feedgw.New(upstream.URL)
	gwts := httptest.NewServer(gw.Handler())
	t.Cleanup(gwts.Close)

	// Garbage cursor: rejected at the gateway, upstream never dialed.
	st, body := get(t, gwts.URL+"/api/v1/builds/1/events?from=bogus", token)
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if st != 400 || env.Error == nil || env.Error.Code != api.CodeInvalidCursor {
		t.Fatalf("bad cursor: status %d, envelope %+v", st, env.Error)
	}
	if n := proxy.requests("GET /api/v1/builds/1"); n != 0 {
		t.Fatalf("bad cursor cost %d upstream requests, want 0", n)
	}

	// Unknown build: the upstream's typed 404 passes through.
	st, body = get(t, gwts.URL+"/api/v1/builds/999999/events", token)
	env = api.Envelope{}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if st != 404 || env.Error == nil {
		t.Fatalf("unknown build: status %d, envelope %+v", st, env.Error)
	}

	// Bad token: the upstream's 401 passes through too, so gateway
	// clients authenticate exactly as direct clients do.
	st, _ = get(t, gwts.URL+"/api/v1/builds/1/events", "not-a-token")
	if st != 401 {
		t.Fatalf("bad token: status %d, want 401", st)
	}
}
