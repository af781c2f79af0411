package mirror

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"batterylab/internal/device"
)

func guiRig(t *testing.T) (*rig, *Session, *httptest.Server) {
	t.Helper()
	r := newRig(t, 26)
	s := NewSession(r.dev, r.srv, 3)
	srv := httptest.NewServer(s.GUIHandler())
	t.Cleanup(srv.Close)
	return r, s, srv
}

func TestGUISessionEndpoint(t *testing.T) {
	_, s, srv := guiRig(t)
	resp, err := http.Get(srv.URL + "/api/session")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Device string `json:"device"`
		Active bool   `json:"active"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Device != s.Device().Serial() || st.Active {
		t.Fatalf("state = %+v", st)
	}
}

func TestGUIInputRejectedWhenInactive(t *testing.T) {
	_, _, srv := guiRig(t)
	resp, err := http.Post(srv.URL+"/api/input", "application/json",
		strings.NewReader(`{"type":"tap","x":10,"y":20}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
}

func TestGUIInputFlowsToDevice(t *testing.T) {
	r, s, srv := guiRig(t)
	if err := s.Start(0); err != nil {
		t.Fatal(err)
	}
	app := &captureApp{pkg: "com.app"}
	r.dev.Install(app)
	r.dev.LaunchApp("com.app")

	for _, body := range []string{
		`{"type":"tap","x":10,"y":20}`,
		`{"type":"key","key":"KEYCODE_ENTER"}`,
		`{"type":"text","text":"bbc.com"}`,
		`{"type":"scroll","down":true}`,
	} {
		resp, err := http.Post(srv.URL+"/api/input", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("input %s: status %d", body, resp.StatusCode)
		}
	}
	if len(app.events) != 4 {
		t.Fatalf("events = %d, want 4", len(app.events))
	}
}

func TestGUIInputBadRequests(t *testing.T) {
	_, s, srv := guiRig(t)
	s.Start(0)
	resp, _ := http.Post(srv.URL+"/api/input", "application/json", strings.NewReader(`{"type":"dance"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown type: status %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/api/input", "application/json", strings.NewReader(`garbage`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/api/input")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET input: status %d", resp.StatusCode)
	}
}

func TestSessionBytesAndTrafficCohere(t *testing.T) {
	r, s, _ := guiRig(t)
	s.Start(0)
	r.dev.Framebuffer().SetActivity(30, 1)
	r.clk.Advance(5 * time.Second)
	sent := s.BytesSent()
	in, _ := s.VNC().Traffic()
	if sent == 0 || in != sent {
		t.Fatalf("agent sent %d, VNC saw %d", sent, in)
	}
}

type captureApp struct {
	pkg string

	mu     sync.Mutex
	events []device.InputEvent
}

func (c *captureApp) PackageName() string            { return c.pkg }
func (c *captureApp) Launch(*device.Device) error    { return nil }
func (c *captureApp) Stop(*device.Device) error      { return nil }
func (c *captureApp) ClearData(*device.Device) error { return nil }
func (c *captureApp) HandleInput(_ *device.Device, ev device.InputEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	return nil
}

// Events returns a snapshot of delivered events.
func (c *captureApp) Events() []device.InputEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]device.InputEvent{}, c.events...)
}
