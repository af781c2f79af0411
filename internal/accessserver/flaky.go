package accessserver

import (
	"fmt"
	"sync"
)

// FlakyNode wraps a node handle with a kill switch — the failure
// injector behind `blab-access -flaky`, the fault-tolerance tests and
// examples/faulttolerance. While down, Exec and Ping fail the way a
// powered-off Pi does (connection refused), so heartbeats stop and the
// scheduler ages the node through suspect into offline.
type FlakyNode struct {
	inner Node

	mu   sync.Mutex
	down bool
}

// NewFlakyNode wraps a node with failure injection, initially up.
func NewFlakyNode(inner Node) *FlakyNode {
	return &FlakyNode{inner: inner}
}

// Name implements Node.
func (f *FlakyNode) Name() string { return f.inner.Name() }

// Exec implements Node, failing while the node is down.
func (f *FlakyNode) Exec(cmd string, args ...string) (string, error) {
	if f.Down() {
		return "", fmt.Errorf("node %s: connect: connection refused", f.inner.Name())
	}
	return f.inner.Exec(cmd, args...)
}

// Ping implements Pinger: the heartbeat probe fails while down and
// otherwise delegates to the wrapped node (a cheap in-process ping for
// LocalNode).
func (f *FlakyNode) Ping() error {
	if f.Down() {
		return fmt.Errorf("node %s: connect: connection refused", f.inner.Name())
	}
	if p, ok := f.inner.(Pinger); ok {
		return p.Ping()
	}
	_, err := f.inner.Exec("ping")
	return err
}

// Kill simulates the vantage point dropping off the network.
func (f *FlakyNode) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = true
}

// Revive brings the vantage point back.
func (f *FlakyNode) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = false
}

// Down reports whether the node is currently killed.
func (f *FlakyNode) Down() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}
