package remote_test

// The feed gateway's cost to the home server, counted: each client
// stream through a gateway is one upstream stream of its own, so k
// subscribers to one build cost the home k sample streams, the same as k
// direct clients would.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"batterylab"
	"batterylab/internal/accessserver/feedgw"
)

// TestGatewayStreamsPerSubscriber opens k concurrent sample streams of
// one settled build through one gateway, for k = 1, 8 and 64, and counts
// the sample-stream requests the home serves: k each time. Every client
// gets the bytes a direct stream gives.
func TestGatewayStreamsPerSubscriber(t *testing.T) {
	l := newLab(t)
	client := l.serve(t)
	sess, err := client.StartExperiment(nil, idleSpec(l), batterylab.ObserverFuncs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(nil); err != nil {
		t.Fatal(err)
	}
	token, err := batterylab.NewAPIToken(l.plat, "gw-subscriber", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	proxy := newFlakyProxy(l.plat.Access.Handler(), 0, 0)
	home := httptest.NewServer(proxy)
	closeOnCleanup(t, home)
	gw := httptest.NewServer(feedgw.New(home.URL).Handler())
	closeOnCleanup(t, gw)

	samplesPath := fmt.Sprintf("/api/v1/builds/%d/samples", sess.Build())
	route := "GET " + samplesPath
	st, direct := get(t, home.URL+samplesPath, token)
	if st != http.StatusOK || len(direct) == 0 {
		t.Fatalf("direct samples: status %d, %d bytes", st, len(direct))
	}
	for _, k := range []int{1, 8, 64} {
		before := proxy.requests(route)
		codes := make([]int, k)
		bodies := make([][]byte, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for i := range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i], bodies[i], errs[i] = fetch(gw.URL+samplesPath, token)
			}()
		}
		wg.Wait()
		for i := range k {
			if errs[i] != nil {
				t.Fatalf("k=%d, subscriber %d: %v", k, i, errs[i])
			}
			if codes[i] != http.StatusOK {
				t.Fatalf("k=%d, subscriber %d: status %d: %s", k, i, codes[i], bodies[i])
			}
			if !bytes.Equal(bodies[i], direct) {
				t.Fatalf("k=%d, subscriber %d: %d bytes, direct %d", k, i, len(bodies[i]), len(direct))
			}
		}
		if got := proxy.requests(route) - before; got != k {
			t.Errorf("%d subscribers through one gateway: the home served %d sample streams, want %d", k, got, k)
		}
	}
}
