package accessserver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"batterylab/internal/controller"
	"batterylab/internal/sshx"
)

// Node is the access server's handle to a vantage point: the Table 1
// command surface reached either in-process (a controller in the same
// address space, used by experiments and tests) or across the network
// through the sshx channel (the deployment configuration).
type Node interface {
	Name() string
	Exec(cmd string, args ...string) (string, error)
}

// LocalNode wraps an in-process controller, routing Exec through the
// same command table the SSH endpoint uses so local and remote nodes
// behave identically.
type LocalNode struct {
	ctl *controller.Controller
}

// NewLocalNode builds a node handle over a controller.
func NewLocalNode(ctl *controller.Controller) *LocalNode {
	return &LocalNode{ctl: ctl}
}

// Name implements Node.
func (n *LocalNode) Name() string { return n.ctl.Name() }

// Controller exposes the wrapped controller for in-process experiments.
func (n *LocalNode) Controller() *controller.Controller { return n.ctl }

// Exec implements Node.
func (n *LocalNode) Exec(cmd string, args ...string) (string, error) {
	return n.ctl.Exec(cmd, args...)
}

// Ping implements Pinger: an in-process liveness probe that the
// heartbeat ticker may run synchronously on the clock goroutine.
func (n *LocalNode) Ping() error {
	_, err := n.ctl.Exec("ping")
	return err
}

// RemoteNode reaches a vantage point over sshx.
type RemoteNode struct {
	name string
	cl   *sshx.Client
}

// NewRemoteNode wraps a connected sshx client.
func NewRemoteNode(name string, cl *sshx.Client) *RemoteNode {
	return &RemoteNode{name: name, cl: cl}
}

// Name implements Node.
func (n *RemoteNode) Name() string { return n.name }

// Exec implements Node.
func (n *RemoteNode) Exec(cmd string, args ...string) (string, error) {
	return n.cl.Exec(cmd, args...)
}

// Nodes is the vantage point registry. Registration is restricted: the
// paper pre-approves vantage points via IP lockdown and security groups;
// here an allowlist of names plays that role (empty = open, for tests).
type Nodes struct {
	mu       sync.RWMutex
	nodes    map[string]Node
	approved map[string]bool
	// gen counts membership changes. Nodes register and unregister
	// without the scheduler lock, so the server compares generations to
	// learn that its published name index went stale.
	gen atomic.Uint64
}

// NewNodes returns an empty registry.
func NewNodes() *Nodes {
	return &Nodes{nodes: make(map[string]Node), approved: make(map[string]bool)}
}

// Approve pre-approves a vantage point name for registration.
func (r *Nodes) Approve(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.approved[name] = true
}

// Register adds a node. If any approvals are configured, the node must
// be pre-approved.
func (r *Nodes) Register(n Node) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.approved) > 0 && !r.approved[n.Name()] {
		return fmt.Errorf("%w: node %q not pre-approved", ErrForbidden, n.Name())
	}
	if _, dup := r.nodes[n.Name()]; dup {
		return fmt.Errorf("%w: node %q already registered", ErrConflict, n.Name())
	}
	r.nodes[n.Name()] = n
	r.gen.Add(1)
	return nil
}

// generation reports how many times membership has changed.
func (r *Nodes) generation() uint64 { return r.gen.Load() }

// Get resolves a node.
func (r *Nodes) Get(name string) (Node, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: no node %q", ErrNotFound, name)
	}
	return n, nil
}

// Remove drops a node.
func (r *Nodes) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[name]; !ok {
		return fmt.Errorf("%w: no node %q", ErrNotFound, name)
	}
	delete(r.nodes, name)
	r.gen.Add(1)
	return nil
}

// List reports node names sorted.
func (r *Nodes) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Devices asks a node for its test devices.
func (r *Nodes) Devices(name string) ([]string, error) {
	n, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	out, err := n.Exec("list_devices")
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(out) == "" {
		return nil, nil
	}
	return strings.Split(strings.TrimSpace(out), "\n"), nil
}
