// Package powersocket models the Meross-style WiFi power socket that lets
// the BatteryLab controller switch the Monsoon's mains supply on and off
// remotely (§3.2). The real socket is driven through a small HTTP/JSON
// API (the MerossIot library); this model serves the same surface via
// net/http (Handler), which the package's tests drive with a client.
package powersocket

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// Socket is one switchable outlet. It is safe for concurrent use.
type Socket struct {
	name string

	mu        sync.Mutex
	on        bool
	toggles   int
	listeners []func(bool)
}

// New returns a socket that starts off.
func New(name string) *Socket {
	return &Socket{name: name}
}

// Name reports the socket's identifier.
func (s *Socket) Name() string { return s.name }

// Set switches the outlet, notifying listeners on changes.
func (s *Socket) Set(on bool) {
	s.mu.Lock()
	changed := s.on != on
	s.on = on
	if changed {
		s.toggles++
	}
	listeners := append([]func(bool){}, s.listeners...)
	s.mu.Unlock()
	if changed {
		for _, f := range listeners {
			f(on)
		}
	}
}

// On reports the outlet state.
func (s *Socket) On() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.on
}

// OnChange registers a listener invoked on every state change — how the
// Monsoon's SetMains is wired to the socket.
func (s *Socket) OnChange(f func(bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, f)
}

// Handler returns the socket's HTTP control surface:
//
//	GET  /status          -> {"name":..., "on":bool}
//	POST /control {"on":bool}
//
// mirroring the local-LAN API the MerossIot library speaks.
func (s *Socket) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, map[string]any{"name": s.name, "on": s.On()})
	})
	mux.HandleFunc("/control", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			On *bool `json:"on"`
		}
		if err := json.Unmarshal(body, &req); err != nil || req.On == nil {
			http.Error(w, "want body {\"on\": bool}", http.StatusBadRequest)
			return
		}
		s.Set(*req.On)
		writeJSON(w, map[string]any{"name": s.name, "on": s.On()})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
