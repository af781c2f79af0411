package device

import (
	"fmt"
	"sort"
	"sync"
)

// Storage models the device's user-visible filesystem (the sdcard): the
// place experiments push workload media (the Fig. 2 mp4) and pull logs
// from. Paths are flat slash-separated names; no directory objects are
// modelled beyond prefix listing.
type Storage struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewStorage returns an empty filesystem.
func NewStorage() *Storage {
	return &Storage{files: make(map[string][]byte)}
}

// Push writes a file (adb push).
func (s *Storage) Push(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("storage: empty path")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.files[path] = cp
	return nil
}

// Pull reads a file (adb pull).
func (s *Storage) Pull(path string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("storage: %s: no such file", path)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Exists reports whether path is present.
func (s *Storage) Exists(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.files[path]
	return ok
}

// Delete removes a file (rm). Removing a missing file is an error, like rm.
func (s *Storage) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("storage: %s: no such file", path)
	}
	delete(s.files, path)
	return nil
}

// List returns paths with the given prefix, sorted.
func (s *Storage) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for p := range s.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Wipe clears everything (factory reset).
func (s *Storage) Wipe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files = make(map[string][]byte)
}
