// Package sched is the access server's dispatch decision (§3.1): which
// queued build runs next, and where, under one job at a time per device.
// It holds a build's scheduling facts (Job: owner, constraints, campaign,
// written once per build in its Entry), the dispatch queue, the lock
// table, the placement classes, the running counts and the drain pass
// over them, and no clock, timer, goroutine, WAL record, feed or HTTP:
// the access server calls it under its scheduler lock, answers what the
// pass asks of nodes and peers (Fleet), and makes what a pass decided
// happen. Its invariants are checked in its own tests: check recounts
// the queue, classes, lock table and counts from the entries after every
// step of FuzzDrainMatchesReference.
package sched

import (
	"cmp"
	"slices"
	"time"
)

// Constraints gate when a build may dispatch (§3.1: "based on
// experimenter constraints, e.g. target device ... and BatteryLab
// constraints, e.g. one job at a time per device").
type Constraints struct {
	// Node is the target vantage point (required).
	Node string
	// Device is the target device serial; if set, the build holds the
	// node/device lock for its duration.
	Device string
	// RequireLowCPU defers dispatch until the controller's CPU is below
	// 50 % (the optional condition of §4.2).
	RequireLowCPU bool
	// Fallback lets the scheduler substitute another online monitored
	// node (and one of its devices) when the preferred node is
	// unavailable — the failover policy behind campaign completion on
	// surviving vantage points.
	Fallback bool
	// WholeNode makes the build hold its node's lock even though it
	// names a device: the pipeline uses something the vantage point has
	// one of — the power monitor, for every measurement — so builds on
	// the node's other devices must wait for it.
	WholeNode bool
}

// Placement is where a build may run right now. Peer is "" for a node
// attached to the server; otherwise the build routes to a vantage point
// the peer advertised in its census, reachable at PeerURL. Pinned marks
// the preferred node itself, local and online; such a placement carries
// no score (the claim's interpreter computes it), and Until is the
// instant its health decays with no event to announce it.
type Placement struct {
	Node, Device  string
	Score         float64
	Pinned        bool
	Until         time.Time
	Peer, PeerURL string
}

// lockName is the mutual-exclusion namespace of the placement's node:
// remote nodes are keyed per peer, so a peer's "pixel-1" never contends
// with a local node of the same name.
func (pl Placement) lockName() string {
	if pl.Peer == "" {
		return pl.Node
	}
	return pl.Peer + "!" + pl.Node
}

// Key names what a running build holds for mutual exclusion: one device
// under a lock name, or — no device — the whole name. The name is the
// placement's node, "peer!node" for a routed build.
type Key struct{ Name, Device string }

// String is the key as pending reasons spell it: "node/device" or "node".
func (k Key) String() string {
	if k.Device == "" {
		return k.Name
	}
	return k.Name + "/" + k.Device
}

// Key computes the lock a build under c holds on pl: the device's, or the
// node's when the build names no device (it still serializes per node) or
// needs the whole node.
func (c Constraints) Key(pl Placement) Key {
	if c.WholeNode {
		return Key{Name: pl.lockName()}
	}
	return Key{Name: pl.lockName(), Device: pl.Device}
}

// Prio is a pending reason's priority, which is also the category the
// blab_queue_pending gauge counts it under. A build skipped for several
// reasons in one pass reports the highest-priority one — stably, instead
// of whichever check happened to run last. Executor saturation outranks
// everything (nothing dispatches regardless of other conditions, and it
// lets the pass stop evaluating the tail of a deep queue); below it, the
// order runs from policy caps down to transient gates. None (next in
// line) and a failover's Retry are no drain verdict.
type Prio uint8

// The priorities, highest first after None.
const (
	None Prio = iota
	Executor
	CampaignCap
	OwnerCap
	NodeUnavailable
	LockWait
	CPUProbe
	CPUGate
	Retry
)

// Fleet is what the drain pass reads about nodes and peers. Neither
// method may change the scheduler.
type Fleet interface {
	// Place resolves where a build under c may run at now, or why it
	// keeps waiting (an empty Node). See Class for what it may read.
	Place(c Constraints, now time.Time) (Placement, string)
	// CPUGate judges local node's CPU gate for a RequireLowCPU build:
	// None when open, else why the build waits, and whether a probe of
	// the node's CPU must launch (at most one is in flight).
	CPUGate(node string, now time.Time) (Prio, string, bool)
}

// Campaign is a campaign's concurrency cap and the running count it reads.
type Campaign struct {
	Max     int // 0 = uncapped
	running int
}

// Job is what the scheduler knows of a build: its scheduling facts,
// fixed from its submission and kept once, in its Entry (NewEntry).
type Job struct {
	Owner string
	Cons  Constraints
	Camp  *Campaign // nil for a build in no campaign
	Build any       // the caller's build, handed back in picks and relabels
}

// Entry is one build's state in the scheduler, embedded in the build;
// only the scheduler changes it.
type Entry struct {
	job Job
	// Queued: the placement class it is counted in (nil otherwise), its
	// place in the order builds entered the queue (a requeue takes a new
	// one), and the pending reason the last pass gave it, with its
	// category.
	class  *Class
	seq    uint64
	reason string
	prio   Prio
	// Running: the lock the attempt holds (zero when it holds nothing —
	// the one record of what a claim took and Release gives back), and
	// the local node its running count is on ("" for a routed build).
	held Key
	node string
}

// NewEntry is the entry of a build the scheduler knows as j: the one
// place a build's scheduling facts are written.
func NewEntry(j Job) Entry { return Entry{job: j} }

// Label is the pending reason a queued build waits with and its category,
// kept nowhere else (the access server renders it into the published
// status). An owner-cap label keeps its text while its category stays
// OwnerCap: the text names only the owner and the cap, both fixed.
func (e *Entry) Label() (Prio, string) { return e.prio, e.reason }

// Held is the lock the build's running attempt holds, zero for none.
func (e *Entry) Held() Key { return e.held }

// Class is the placement class the build is counted in, nil when it is
// not in the queue.
func (e *Entry) Class() *Class { return e.class }

// NodeState is what the scheduler counts on a node: builds queued that
// prefer it, builds running on it, and the version whose move voids a
// placement pinned to it.
type NodeState struct {
	Queued, Running int
	Version         uint64
}

// Sched is the dispatch decision's state, not safe for concurrent use.
type Sched struct {
	fleet     Fleet
	executors int // most builds running at once
	ownerCap  int // most builds of one owner running at once, 0 = unlimited

	// queue holds the dispatchable builds in seq order; seq numbers them
	// as they enter it.
	queue []*Entry
	seq   uint64
	// locks is the lock table: lock name -> device -> the entry of the
	// running build holding it, the device "" standing for the whole name.
	// A name with nothing held has no entry.
	locks map[string]map[string]*Entry
	// classes holds one placement verdict per distinct Constraints value
	// with builds in the queue; epoch is what a verdict that is not
	// pinned to a node is valid for (see Class).
	classes map[Constraints]*Class
	epoch   uint64
	// running counts builds holding executors; ownerRunning each owner's
	// (the OwnerRunCap fair-share input).
	running      int
	ownerRunning map[string]int
	// nodes holds the counts per node name, never deleted; touched the
	// names touched since the access server last took them (Touched).
	nodes   map[string]*NodeState
	touched []string
	// execLabelled is the drain pass's labelled-through watermark (see
	// labelSaturated); visits and evals what the passes spent (Cost);
	// pass the last one's result, whose slices are reused.
	execLabelled  uint64
	visits, evals int64
	pass          Pass
}

// New returns an empty scheduler over fleet, with executors slots and at
// most ownerCap running builds per owner (0 = unlimited).
func New(fleet Fleet, executors, ownerCap int) *Sched {
	return &Sched{
		fleet: fleet, executors: executors, ownerCap: ownerCap,
		locks:        make(map[string]map[string]*Entry),
		classes:      make(map[Constraints]*Class),
		ownerRunning: make(map[string]int),
		nodes:        make(map[string]*NodeState),
	}
}

// Queue is the dispatch queue in order. The caller must not change it.
func (q *Sched) Queue() []*Entry { return q.queue }

// Running is the number of builds holding executors.
func (q *Sched) Running() int { return q.running }

// Classes is the placement class table. The caller must not change it.
func (q *Sched) Classes() map[Constraints]*Class { return q.classes }

// Node reports what the scheduler counts on the named node.
func (q *Sched) Node(name string) NodeState {
	if n := q.nodes[name]; n != nil {
		return *n
	}
	return NodeState{}
}

// Cost reports what the passes have spent so far: queued builds visited
// and placements computed, and the placement epoch, which moves once per
// pass and once per claim. A class is placed at most once per epoch.
func (q *Sched) Cost() (visits, evals int64, epoch uint64) { return q.visits, q.evals, q.epoch }

// Touch marks node as changed, for its two caches: the node's census row
// is rebuilt when the access server takes the touched names (Touched),
// and every verdict pinned to it falls. The access server touches a node
// whenever it moves what a pinned placement reads (the handle, the
// lifecycle flags, the last beat) or what the row serves; the scheduler
// touches it at every move of its queued and running counts and locks.
func (q *Sched) Touch(node string) {
	if n := q.nodes[node]; n != nil {
		n.Version++ // before the early-out: a repeated name is a second change
	}
	if k := len(q.touched); k > 0 && q.touched[k-1] == node {
		return
	}
	q.touched = append(q.touched, node)
}

// Touched hands over the names touched since the last call; the slice is
// valid until the next Touch.
func (q *Sched) Touched() []string {
	t := q.touched
	q.touched = q.touched[:0]
	return t
}

// node is the named node's counts, created on first use.
func (q *Sched) node(name string) *NodeState {
	n := q.nodes[name]
	if n == nil {
		n = &NodeState{}
		q.nodes[name] = n
	}
	return n
}

// Push appends the build of entry e to the dispatch queue, counting it in
// its placement class (created with its first build) and against its
// preferred node (a build without one counts on no node).
func (q *Sched) Push(e *Entry) {
	q.seq++
	e.seq = q.seq
	q.queue = append(q.queue, e)
	cons := e.job.Cons
	e.class = q.classes[cons]
	if e.class == nil {
		e.class = &Class{cons: cons}
		q.classes[cons] = e.class
	}
	e.class.queued++
	if n := cons.Node; n != "" {
		q.node(n).Queued++
		q.Touch(n)
	}
}

// uncount undoes Push's counting for e, which is leaving the queue; the
// caller compacts the queue after.
func (q *Sched) uncount(e *Entry) {
	c := e.class
	if c.queued--; c.queued == 0 {
		delete(q.classes, c.cons)
	}
	e.class = nil
	if n := e.job.Cons.Node; n != "" {
		q.nodes[n].Queued--
		q.Touch(n)
	}
}

// compact closes the queue over the builds that left it between indexes
// from and to (none did past to), keeping the rest in order, and nils the
// vacated tail so the backing array does not pin removed builds.
func (q *Sched) compact(from, to int) {
	w := from
	for _, e := range q.queue[from:to] {
		if e.class != nil {
			q.queue[w] = e
			w++
		}
	}
	w += copy(q.queue[w:], q.queue[to:])
	clear(q.queue[w:])
	q.queue = q.queue[:w]
}

// Remove takes e out of the dispatch queue, and reports whether it was
// in it.
func (q *Sched) Remove(e *Entry) bool {
	if e.class == nil {
		return false
	}
	i, _ := slices.BinarySearchFunc(q.queue, e.seq, func(x *Entry, seq uint64) int { return cmp.Compare(x.seq, seq) })
	q.uncount(e)
	q.compact(i, i+1)
	return true
}

// RemoveFunc takes every queued build drop reports true for out of the
// queue, keeping the rest in order. drop may act on the build it drops.
func (q *Sched) RemoveFunc(drop func(Job) bool) {
	for _, e := range q.queue {
		if drop(e.job) {
			q.uncount(e)
		}
	}
	q.compact(0, len(q.queue))
}

// Held reports whether k conflicts with a held lock: a device with itself
// and with the whole of its name, the whole name with anything held under
// it. The name's entry decides, whatever is held elsewhere.
func (q *Sched) Held(k Key) bool {
	under := q.locks[k.Name]
	if len(under) == 0 {
		return false
	}
	_, whole := under[""]
	_, device := under[k.Device]
	return k.Device == "" || whole || device
}

// claim starts queued build e on placement pl under lock key, which the
// pass found free: the build leaves the queue's counts (the pass compacts
// it out) and takes the lock, an executor slot and the campaign, owner
// and node running counts, so later candidates of the same pass see them.
func (q *Sched) claim(e *Entry, pl Placement, key Key) {
	q.uncount(e)
	// A claim moves a lock and a running count, which every verdict not
	// pinned to a node may have read; the node's own verdicts fall with
	// the touch below.
	q.epoch++
	under := q.locks[key.Name]
	if under == nil {
		under = make(map[string]*Entry, 1)
		q.locks[key.Name] = under
	}
	under[key.Device] = e
	e.held = key
	q.running++
	if e.job.Camp != nil {
		e.job.Camp.running++
	}
	q.ownerRunning[e.job.Owner]++
	e.reason, e.prio = "", None
	p := Pick{Job: e.job, Placement: pl}
	if pl.Peer == "" {
		// Only local placements count on a node: a peer's node must never
		// leak into the local census.
		n := q.node(pl.Node)
		p.Running = n.Running
		n.Running++
		e.node = pl.Node
		q.Touch(pl.Node)
	}
	q.pass.Picks = append(q.pass.Picks, p)
}

// Release gives back what a claim took for e, and reports whether e held
// anything: a build recovered from the WAL as running holds nothing in
// this process — the crash released it.
func (q *Sched) Release(e *Entry) bool {
	k := e.held
	if k == (Key{}) {
		return false
	}
	under := q.locks[k.Name]
	if delete(under, k.Device); len(under) == 0 {
		delete(q.locks, k.Name)
	}
	e.held = Key{}
	q.running--
	if e.job.Camp != nil {
		e.job.Camp.running--
	}
	if q.ownerRunning[e.job.Owner]--; q.ownerRunning[e.job.Owner] <= 0 {
		delete(q.ownerRunning, e.job.Owner)
	}
	if e.node != "" {
		q.nodes[e.node].Running--
		q.Touch(e.node)
		e.node = ""
	}
	return true
}

// SetLabel gives queued build e the pending reason a caller other than
// the pass chose (a failover's retry), with its category.
func (q *Sched) SetLabel(e *Entry, prio Prio, reason string) {
	e.prio, e.reason = prio, reason
}
