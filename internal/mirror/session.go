package mirror

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"batterylab/internal/adb"
	"batterylab/internal/device"
)

// Session ties the pipeline together for one device: the on-device
// agent, the controller-side VNC server, and the GUI backend that noVNC
// clients talk to. Input from the GUI travels to the device over ADB —
// the same channel scrcpy uses — so a session only works while an ADB
// transport is available (the paper's reason the BT keyboard cannot
// support mirroring).
type Session struct {
	dev *device.Device
	srv *adb.Server
	vnc *VNCServer

	mu     sync.Mutex
	agent  *Agent
	shares map[string]ShareConfig
}

// ShareConfig is what a shared GUI link grants a test participant.
type ShareConfig struct {
	// Toolbar controls whether the Table 1 toolbar is rendered on the
	// shared page: experimenters see it; crowdsourced testers usually
	// should not (§3.2).
	Toolbar bool
}

// NewSession builds an inactive session.
func NewSession(dev *device.Device, srv *adb.Server, seed uint64) *Session {
	return &Session{
		dev: dev, srv: srv, vnc: NewVNCServer(seed),
		shares: make(map[string]ShareConfig),
	}
}

// Share mints an access token for a test participant with the given view
// configuration — the link an experimenter hands to a volunteer or a
// Mechanical Turk worker.
func (s *Session) Share(cfg ShareConfig) (token string, err error) {
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return "", err
	}
	token = hex.EncodeToString(raw)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shares[token] = cfg
	return token, nil
}

// Revoke invalidates a share token.
func (s *Session) Revoke(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.shares, token)
}

// ShareLookup resolves a token.
func (s *Session) ShareLookup(token string) (ShareConfig, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, ok := s.shares[token]
	return cfg, ok
}

// VNC exposes the controller-side server (the controller host model
// reads its load).
func (s *Session) VNC() *VNCServer { return s.vnc }

// Device reports the mirrored device.
func (s *Session) Device() *device.Device { return s.dev }

// Start activates mirroring at the given bitrate cap (0 = default).
func (s *Session) Start(bitrateMbps float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agent != nil {
		return fmt.Errorf("mirror: session already active for %s", s.dev.Serial())
	}
	agent := NewAgent(s.dev, s.vnc, bitrateMbps)
	if err := agent.Start(s.srv); err != nil {
		return err
	}
	s.vnc.Activate()
	s.agent = agent
	return nil
}

// Stop deactivates mirroring.
func (s *Session) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agent == nil {
		return
	}
	s.agent.Stop()
	s.agent = nil
	s.vnc.Deactivate()
}

// Active reports whether the session is mirroring.
func (s *Session) Active() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agent != nil
}

// BytesSent reports the agent's upload volume for the current session
// (0 when inactive).
func (s *Session) BytesSent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agent == nil {
		return 0
	}
	return s.agent.BytesSent()
}

// Tap, Key, Text and Scroll forward GUI input toward the device via ADB.
func (s *Session) Tap(x, y int) error {
	_, err := s.srv.Shell(s.dev.Serial(), fmt.Sprintf("input tap %d %d", x, y))
	return err
}

// Key forwards a key event.
func (s *Session) Key(key string) error {
	_, err := s.srv.Shell(s.dev.Serial(), "input keyevent "+key)
	return err
}

// Text forwards typed text.
func (s *Session) Text(text string) error {
	_, err := s.srv.Shell(s.dev.Serial(), "input text "+text)
	return err
}

// Scroll forwards a scroll gesture.
func (s *Session) Scroll(down bool) error {
	cmd := "input swipe 360 300 360 900 200"
	if down {
		cmd = "input swipe 360 900 360 300 200"
	}
	_, err := s.srv.Shell(s.dev.Serial(), cmd)
	return err
}

// GUIHandler returns the HTTP backend the noVNC page's AJAX calls hit
// (§3.2: "the GUI connects to the controller's backend using AJAX calls
// to some internal restful APIs").
//
//	GET  /api/session       -> session state
//	POST /api/input         -> {"type":"tap"|"key"|"text"|"scroll", ...}
func (s *Session) GUIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/session", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		in, out := s.vnc.Traffic()
		writeJSON(w, map[string]any{
			"device":    s.dev.Serial(),
			"active":    s.Active(),
			"bytes_in":  in,
			"bytes_out": out,
		})
	})
	mux.HandleFunc("/api/view", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		cfg, ok := s.ShareLookup(r.URL.Query().Get("token"))
		if !ok {
			http.Error(w, "invalid or revoked share token", http.StatusForbidden)
			return
		}
		writeJSON(w, map[string]any{
			"device":  s.dev.Serial(),
			"active":  s.Active(),
			"toolbar": cfg.Toolbar,
		})
	})
	mux.HandleFunc("/api/input", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if !s.Active() {
			http.Error(w, "mirroring not active", http.StatusConflict)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Type string `json:"type"`
			X    int    `json:"x"`
			Y    int    `json:"y"`
			Key  string `json:"key"`
			Text string `json:"text"`
			Down bool   `json:"down"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad JSON", http.StatusBadRequest)
			return
		}
		switch req.Type {
		case "tap":
			err = s.Tap(req.X, req.Y)
		case "key":
			err = s.Key(req.Key)
		case "text":
			err = s.Text(req.Text)
		case "scroll":
			err = s.Scroll(req.Down)
		default:
			http.Error(w, "unknown input type "+req.Type, http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
