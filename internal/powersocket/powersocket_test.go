package powersocket

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSetAndListeners(t *testing.T) {
	s := New("meross-1")
	var events []bool
	s.OnChange(func(on bool) { events = append(events, on) })
	s.Set(true)
	s.Set(true) // no change
	s.Set(false)
	if len(events) != 2 || events[0] != true || events[1] != false {
		t.Fatalf("events = %v", events)
	}
	if s.Toggles() != 2 {
		t.Fatalf("toggles = %d", s.Toggles())
	}
}

func TestHTTPStatus(t *testing.T) {
	s := New("meross-1")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	name, on, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if name != "meross-1" || on {
		t.Fatalf("status = %q, %v", name, on)
	}
}

func TestHTTPControl(t *testing.T) {
	s := New("m")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	if err := c.Set(true); err != nil {
		t.Fatal(err)
	}
	if !s.On() {
		t.Fatal("socket not on after client Set")
	}
	_, on, _ := c.Status()
	if !on {
		t.Fatal("client does not observe on state")
	}
	if err := c.Set(false); err != nil {
		t.Fatal(err)
	}
	if s.On() {
		t.Fatal("socket still on")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := New("m")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/control", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing 'on' field: status %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/control", "application/json", strings.NewReader("notjson"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/control")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET control: status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/status", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status: status %d", resp.StatusCode)
	}
}

func TestMonsoonIntegrationWiring(t *testing.T) {
	// The socket's OnChange drives an external consumer exactly once per
	// transition, regardless of transport (direct or HTTP).
	s := New("m")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var mains bool
	s.OnChange(func(on bool) { mains = on })
	c := NewClient(srv.URL, nil)
	c.Set(true)
	if !mains {
		t.Fatal("listener did not fire over HTTP transport")
	}
}

// Toggles reports how many state changes occurred (relay wear metric).
func (s *Socket) Toggles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.toggles
}

// Client drives a socket over its HTTP API, the controller's side of the
// conversation.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the socket served at baseURL.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// Status fetches the socket state.
func (c *Client) Status() (name string, on bool, err error) {
	resp, err := c.hc.Get(c.base + "/status")
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("powersocket: status %s", resp.Status)
	}
	var out struct {
		Name string `json:"name"`
		On   bool   `json:"on"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", false, err
	}
	return out.Name, out.On, nil
}

// Set switches the socket.
func (c *Client) Set(on bool) error {
	body := fmt.Sprintf(`{"on":%v}`, on)
	resp, err := c.hc.Post(c.base+"/control", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("powersocket: control %s", resp.Status)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
