package accessserver

import (
	"fmt"
	"strings"

	"batterylab/internal/accessserver/store"
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

// Nodes is the vantage point registry as embedders see it: a view of the
// server's one node table (Server.nodeRecs, see health.go), where a
// registered node is a lifecycle record holding its handle. Register and
// Remove are scheduler transitions under s.mu; Get, List and Devices read
// the published census and take no lock.
// Registration is restricted: the paper pre-approves vantage points via
// IP lockdown and security groups; here an allowlist of names plays that
// role (empty = open, for tests).
type Nodes struct {
	s        *Server
	approved map[string]bool // guarded by s.mu
}

// errNoNode is the typed error of every lookup that finds no registered
// node under name.
func errNoNode(name string) error {
	return fmt.Errorf("%w: no node %q", ErrNotFound, name)
}

// Approve pre-approves a vantage point name for registration.
func (r *Nodes) Approve(name string) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	r.approved[name] = true
}

// Register adds a node: its lifecycle record takes the handle. If any
// approvals are configured, the node must be pre-approved. Registering a
// name RemoveNode tombstoned ends the removal — unmonitored, always
// online, placeable again — and a record that says monitored gets its
// heartbeat ticker back.
func (r *Nodes) Register(n Node) error {
	s, name := r.s, n.Name()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(r.approved) > 0 && !r.approved[name] {
		return fmt.Errorf("%w: node %q not pre-approved", ErrForbidden, name)
	}
	rec := s.recLocked(name)
	if rec.node != nil {
		return fmt.Errorf("%w: node %q already registered", ErrConflict, name)
	}
	rec.node = n
	if rec.Removed {
		s.applyNodeLocked(rec, store.Record{T: store.TNodeMonitored, Node: &store.NodeRec{
			Name: name, Owner: rec.Owner, Devices: rec.Devices,
		}})
	}
	s.armLocked(rec)
	s.touchNodeLocked(name)
	return nil
}

// RegisterNode registers a node and arms health monitoring — the
// deployment path. (Nodes.Register alone leaves it unmonitored and
// always online.)
func (s *Server) RegisterNode(n Node) error {
	if err := s.Nodes.Register(n); err != nil {
		return err
	}
	if err := s.MonitorNode(n.Name()); err != nil {
		return err
	}
	s.dispatch()
	return nil
}

// Get resolves a registered node's handle.
func (r *Nodes) Get(name string) (Node, error) {
	return r.s.reads.handle(name)
}

// Remove drops a node's handle: it reads offline (or, unmonitored and
// never removed, is forgotten) from here on. Its lifecycle record stays;
// RemoveNode is the admin verb that also tombstones it.
func (r *Nodes) Remove(name string) error {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	_, err := r.s.unregisterLocked(name)
	return err
}

// registeredLocked resolves the lifecycle record of a registered node.
// Callers hold s.mu.
func (s *Server) registeredLocked(name string) (*nodeRec, error) {
	if rec := s.nodeRecs[name]; rec != nil && rec.node != nil {
		return rec, nil
	}
	return nil, errNoNode(name)
}

// unregisterLocked takes a registered node's handle away and stops its
// heartbeat ticker: nothing is left to probe. Callers hold s.mu.
func (s *Server) unregisterLocked(name string) (*nodeRec, error) {
	rec, err := s.registeredLocked(name)
	if err != nil {
		return nil, err
	}
	rec.node = nil
	if rec.ticker != nil {
		rec.ticker.Stop()
		rec.ticker = nil
	}
	s.touchNodeLocked(name)
	return rec, nil
}

// List reports the registered node names, sorted.
func (r *Nodes) List() []string {
	rows := r.s.reads.nodeList()
	out := make([]string, 0, len(rows))
	for _, e := range rows {
		if e.node != nil {
			out = append(out, e.Name)
		}
	}
	return out
}

// Devices asks a node for its test devices.
func (r *Nodes) Devices(name string) ([]string, error) {
	n, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return listDevices(n)
}

// listDevices runs list_devices on a node: one round trip, so callers
// hold no lock.
func listDevices(n Node) ([]string, error) {
	out, err := n.Exec("list_devices")
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(out) == "" {
		return nil, nil
	}
	return strings.Split(strings.TrimSpace(out), "\n"), nil
}
