package accessserver

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/accessserver/cluster"
	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/analytics"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// schedMutex is the scheduler lock. Lock counts acquisitions, which makes
// the control/data plane split provable: tests (TestFeedPlaneLockFree,
// TestMembershipChurn) assert that streaming subscribers and status
// pollers drive the read plane without a single scheduler-lock
// acquisition. Unlock is the one exit of every critical section.
type schedMutex struct {
	sync.Mutex
	acquisitions atomic.Int64
	s            *Server
}

func (m *schedMutex) Lock() {
	m.Mutex.Lock()
	m.acquisitions.Add(1)
}

// Unlock runs the server's leaveSection (persist.go) before the lock drops,
// and after, on the calling goroutine, what the section left for later:
// first the cancel hooks it detached, which tear down sessions that may
// still be alive on a merely partitioned node (and may re-enter the
// server), then the drain pass it asked for.
func (m *schedMutex) Unlock() {
	cancels, redrain := m.s.leaveSection()
	m.Mutex.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	if redrain {
		m.s.dispatch()
	}
}

// Config tunes the access server.
type Config struct {
	// Executors bounds concurrently running builds (Jenkins executors).
	Executors int
	// Retention is how long finished builds keep logs and artifacts
	// ("several days", §3.1). After the window the build record itself
	// is evicted to a tombstone: status reads answer "expired" instead
	// of growing s.builds forever.
	Retention time.Duration

	// HeartbeatEvery is the monitored-node probe cadence (default 15s),
	// and the cadence of federation announces: peer lifecycle uses the
	// same SuspectAfter / OfflineAfter thresholds as nodes.
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence after which a monitored node turns
	// suspect — no new dispatch (default 2×HeartbeatEvery).
	SuspectAfter time.Duration
	// OfflineAfter is the silence after which a monitored node turns
	// offline and its build leases break (default 4×HeartbeatEvery).
	OfflineAfter time.Duration
	// MaxRetries bounds failover requeues per build after node loss
	// (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the first requeue delay after a failover,
	// doubling per retry (default 15s).
	RetryBackoff time.Duration
	// PendingTimeout ages out queued builds whose target node never
	// appears (or has gone offline): instead of pending forever they
	// fail with a reason (default 30m).
	PendingTimeout time.Duration

	// OwnerInFlightCap bounds one non-admin owner's builds in
	// non-terminal states (queued + running); submissions past the cap
	// are shed with ErrOverloaded (429, shed_reason=owner_cap).
	// 0 = unlimited.
	OwnerInFlightCap int
	// ShedWatermark is the dispatch-queue depth at which non-admin
	// submissions shed with ErrOverloaded (429,
	// shed_reason=queue_watermark). Credit-aware: while the §5 credit
	// economy is enforced, a submitter whose ledger covered the credit
	// gate may queue up to twice the watermark — paying tenants buy
	// headroom — and only the doubled hard watermark sheds them.
	// 0 = unlimited.
	ShedWatermark int
	// OwnerRunCap is the dispatch-time fair-share bound: at most this
	// many builds of one owner hold executors concurrently, so a hot
	// tenant's backlog cannot starve everyone else's queue wait.
	// Applies to every owner, admins included — it allocates capacity,
	// it does not deny admission. 0 = unlimited.
	OwnerRunCap int

	// SnapshotEvery is the store compaction cadence when a store is
	// attached: every tick with new WAL records, the server writes a
	// snapshot and truncates the log (default 10m).
	SnapshotEvery time.Duration
	// WALSyncEvery is the group-commit cadence: WAL appends are fsynced
	// on this interval (default 1s), bounding what a power loss can
	// lose. A process crash alone loses nothing — appends reach the
	// kernel immediately.
	WALSyncEvery time.Duration
}

// Fixed policy no deployment has needed to tune.
const (
	// lowCPUThreshold gates RequireLowCPU dispatch (the 50 % of §4.2).
	lowCPUThreshold = 50.0
	// cpuProbeTTL is how long a node's probed CPU reading stays fresh for
	// RequireLowCPU dispatch decisions: the controller's CPU-sampling
	// cadence. Probes run outside s.mu — a hung node cannot stall the
	// scheduler.
	cpuProbeTTL = time.Second
	// submitCharge is the device time one experiment must be able to
	// cover at submission time when credits are enforced. The real charge
	// on finish is the measured duration.
	submitCharge = time.Minute
	// analyticsCacheBytes bounds the analytics result cache (marshaled
	// response bodies, LRU).
	analyticsCacheBytes = 4 << 20
)

func (c Config) withDefaults() Config {
	if c.Executors == 0 {
		c.Executors = 2
	}
	if c.Retention == 0 {
		c.Retention = 5 * 24 * time.Hour
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 15 * time.Second
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 2 * c.HeartbeatEvery
	}
	if c.OfflineAfter == 0 {
		c.OfflineAfter = 4 * c.HeartbeatEvery
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 15 * time.Second
	}
	if c.PendingTimeout == 0 {
		c.PendingTimeout = 30 * time.Minute
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 10 * time.Minute
	}
	if c.WALSyncEvery == 0 {
		c.WALSyncEvery = time.Second
	}
	return c
}

// SpecBackend compiles declarative v1 experiment specs into runnable
// pipelines. The platform layer (internal/core) implements it against
// its workload registry and installs it with SetSpecBackend; the server
// itself stays ignorant of workload semantics.
type SpecBackend interface {
	// Compile turns a wire spec into dispatch constraints and a
	// pipeline body. Errors must wrap the package sentinels (ErrInvalid
	// for bad specs, ErrNotFound for unknown nodes/devices/workloads)
	// so the HTTP layer maps them to proper statuses.
	Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error)
	// WorkloadNames lists the registry's workloads, sorted.
	WorkloadNames() []string
}

// Server is the access server: users, nodes, jobs, the build queue and
// its scheduler.
type Server struct {
	cfg   Config
	clock simclock.Clock

	Users *Users
	Nodes *Nodes
	// Ledger is the §5 credit economy: contribution credits accrue from
	// node-online time, experiments debit device time. Enforcement is
	// gated by SetCreditEnforcement.
	Ledger *Ledger

	// hub is the feed plane: per-build event/sample streams behind
	// their own leaf lock, so streaming subscribers resolve and drain
	// feeds without ever touching s.mu, and the scheduler may
	// create/close/evict feeds while holding any of its locks.
	hub *feedhub.Hub
	// reads is the snapshot read plane: build/node/campaign views
	// republished at each critical section's exit, each publish costing
	// what changed, served by the hot GET routes lock-free (see
	// snapshot.go).
	reads *readPlane

	mu      schedMutex
	jobs    map[string]*Job
	builds  map[int]*Build
	queue   []*Build
	running int
	nextID  int
	// locks is the lock table: lock name -> device -> the running build
	// holding it, the device "" standing for the whole name. A name with
	// nothing held has no entry (see lockKey).
	locks map[string]map[string]int
	crons []*cronEntry
	// nodeRecs is the one table of local vantage points: per node, its
	// handle while registered and its lifecycle state (see health.go).
	// Records are created on first mention and never deleted, so
	// nodeNames, their names in order, only ever grows (recLocked).
	nodeRecs  map[string]*nodeRec
	nodeNames []string
	// classes holds one placement verdict per distinct Constraints value
	// with builds in s.queue; placeEpoch is what a verdict that is not
	// pinned to a node is valid for (see placeClass in placement.go).
	classes    map[Constraints]*placeClass
	placeEpoch uint64
	// queuedOn counts the builds in s.queue per preferred node — the
	// census's Queued figure, kept current at every queue mutation
	// instead of recounted from the queue (see countQueuedLocked).
	queuedOn map[string]int
	// exit is what the current critical section marked for its one exit
	// (see sectionExit): leaving the section delivers and empties it.
	exit sectionExit
	// runningNow and queuedNow are s.running and s.m.queued as the last
	// critical section left them, stored at its exit: what Running and
	// QueueLength load without the lock.
	runningNow, queuedNow atomic.Int64
	// queueSeq numbers builds in the order they enter s.queue, which is
	// also the order they sit in it. execLabelled is the drain pass's
	// labelled-through watermark (see labelSaturatedLocked).
	queueSeq     uint64
	execLabelled uint64
	// placer scores fallback placements (see placement.go); swapped at
	// runtime with SetPlacer.
	placer Placer
	// dispatching/redispatch make the dispatch loop non-reentrant:
	// dispatch() calls arriving while a drain loop runs (a pipeline
	// that completed synchronously, a probe result, a heartbeat) set
	// redispatch and return immediately; the active loop rescans. This
	// is what turned the old finish→dispatch recursion — linear stack
	// growth on deep queues of synchronous builds — into iteration.
	dispatching bool
	redispatch  bool
	// ownerActive counts each owner's builds in non-terminal states
	// (the OwnerInFlightCap admission input); ownerRunning counts each
	// owner's builds holding executors (the OwnerRunCap fair-share
	// input). Both maintained under s.mu at the same transitions as
	// the metrics counters.
	ownerActive  map[string]int
	ownerRunning map[string]int

	specs        SpecBackend
	campaigns    map[int]*campaignRec
	nextCampaign int

	// creditsOn gates the ledger checks without a config rebuild.
	creditsOn atomic.Bool

	// Persistence (see persist.go). storeMu is a leaf mutex: it may be
	// taken under s.mu but never takes it.
	// storeFailed latches after a failed WAL append; appends stay
	// suppressed until a compaction re-establishes a complete snapshot.
	storeMu     sync.Mutex
	store       *store.Store
	storeFailed bool
	snapTicker  *simclock.Ticker
	syncTicker  *simclock.Ticker
	// compactMu serializes whole compaction cycles (ticker vs shutdown)
	// without making either hold the scheduler locks across disk I/O.
	compactMu sync.Mutex

	// analyticsCache memoizes marshaled analytics bodies (see
	// analytics.go); self-locking, bounded by analyticsCacheBytes.
	analyticsCache *analytics.Cache

	// cluster is the federation membership registry (its own leaf locks;
	// reads are lock-free COW snapshots — see internal/accessserver/
	// cluster and federation.go). peerRelay is the injected cross-server
	// submit path (s.mu-guarded; the server core cannot import
	// internal/remote, so the daemon or test wires the implementation
	// in). peerSeeds are announce targets configured before the mesh
	// self-assembles; peerTicker drives announce/sweep.
	cluster    *cluster.Registry
	peerRelay  PeerRelay // guarded by s.mu
	peerSeeds  []string  // guarded by s.mu
	peerTicker *simclock.Ticker

	// m is the observability surface (see metrics.go). Its scheduler
	// counters are plain fields mutated under s.mu; everything else is
	// atomic.
	m *serverMetrics
	// logger backs the HTTP middleware and stats flusher; nil means
	// discard. expectDurable marks a deployment that intends to attach
	// a store — /readyz answers 503 until it has (and while durability
	// is latched off).
	logger        atomic.Pointer[slog.Logger]
	expectDurable atomic.Bool
}

// campaignRec tracks one campaign's builds and its concurrency cap.
type campaignRec struct {
	builds        []int
	maxConcurrent int
	running       int
}

type cronEntry struct {
	name   string
	ticker *simclock.Ticker
	runs   atomic.Int64 // the ticker goroutine counts, CronRuns reads
}

// New creates an access server.
func New(clock simclock.Clock, cfg Config) *Server {
	s := &Server{
		cfg:          cfg.withDefaults(),
		clock:        clock,
		jobs:         make(map[string]*Job),
		builds:       make(map[int]*Build),
		nextID:       1,
		locks:        make(map[string]map[string]int),
		nodeRecs:     make(map[string]*nodeRec),
		classes:      make(map[Constraints]*placeClass),
		queuedOn:     make(map[string]int),
		campaigns:    make(map[int]*campaignRec),
		nextCampaign: 1,
		ownerActive:  make(map[string]int),
		ownerRunning: make(map[string]int),
		placer:       WeightedPlacer{W: DefaultScoreWeights()},
	}
	s.mu.s = s
	s.Users = &Users{s: s, byToken: make(map[string]*User), byName: make(map[string]*User)}
	s.Nodes = &Nodes{s: s, approved: make(map[string]bool)}
	s.Ledger = &Ledger{s: s, balances: make(map[string]float64), history: make(map[string][]LedgerEntry)}
	s.analyticsCache = analytics.NewCache(analyticsCacheBytes)
	s.m = newServerMetrics(s)
	s.hub = feedhub.New(&s.m.feeds)
	s.reads = newReadPlane()
	s.cluster = cluster.New(cluster.Config{
		Self:         "batterylab", // until ConfigureCluster names it
		SuspectAfter: s.cfg.SuspectAfter,
		OfflineAfter: s.cfg.OfflineAfter,
	})
	return s
}

// FeedHub exposes the server's feed plane. Embedders (the repo
// benchmark, feed-plane tests) use it to resolve subscriptions the way
// the streaming routes do; the scheduler drives lifecycle internally.
func (s *Server) FeedHub() *feedhub.Hub { return s.hub }

// SchedLockAcquisitions reports how many times the scheduler lock has
// been acquired since the server started. Read-plane isolation tests
// diff it across a poll/stream flood to prove GETs never touch it.
func (s *Server) SchedLockAcquisitions() int64 { return s.mu.acquisitions.Load() }

// SetCreditEnforcement toggles the §5 credit economy (the daemon's
// -credits flag): submissions are gated on the submitter's ledger
// balance and finished runs are charged their actual device time. Admins
// are exempt (they operate the platform rather than buy access). Off
// until turned on.
func (s *Server) SetCreditEnforcement(on bool) { s.creditsOn.Store(on) }

// SetSpecBackend installs the declarative spec compiler. Without one,
// v1 experiment submission is rejected with ErrInvalid.
func (s *Server) SetSpecBackend(b SpecBackend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specs = b
}

// WorkloadNames lists the spec backend's registered workloads (empty
// without a backend).
func (s *Server) WorkloadNames() []string {
	backend, err := s.specBackend()
	if err != nil {
		return nil
	}
	return backend.WorkloadNames()
}

// specBackend returns the installed spec compiler; without one nothing
// can be submitted.
func (s *Server) specBackend() (SpecBackend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.specs == nil {
		return nil, fmt.Errorf("%w: this server has no spec backend", ErrInvalid)
	}
	return s.specs, nil
}

// CreateJob stores a new (unapproved) pipeline: spec is the experiment
// every build of the job runs. The user needs PermCreateJob. The spec
// must compile — a job that could never run is refused here, typed,
// rather than at its first submit.
func (s *Server) CreateJob(user *User, name string, spec api.ExperimentSpec) (Job, error) {
	if !Allowed(user.Role, PermCreateJob) {
		return Job{}, fmt.Errorf("%w: %s (%s) may not create jobs", ErrForbidden, user.Name, user.Role)
	}
	if name == "" || strings.HasPrefix(name, specJobPrefix) {
		return Job{}, fmt.Errorf("%w: job name %q is empty or uses the reserved %q prefix", ErrInvalid, name, specJobPrefix)
	}
	if _, _, err := s.compile(spec); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[name]; dup {
		return Job{}, fmt.Errorf("%w: job %q exists", ErrConflict, name)
	}
	// Admins' own pipelines are implicitly approved.
	j := &Job{Name: name, Owner: user.Name, Spec: spec, Revision: 1, Approved: user.Role == RoleAdmin}
	s.jobs[name] = j
	s.logJob(j)
	return *j, nil
}

// EditJob replaces a job's spec; the revision needs fresh approval
// (§3.1: "every pipeline change has to be approved by an
// administrator"). Builds already queued keep the revision they were
// submitted at. Owners and admins may edit (with PermEditJob).
func (s *Server) EditJob(user *User, name string, spec api.ExperimentSpec) error {
	if !Allowed(user.Role, PermEditJob) {
		return fmt.Errorf("%w: %s (%s) may not edit jobs", ErrForbidden, user.Name, user.Role)
	}
	if _, _, err := s.compile(spec); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.ownedJobLocked(user, name)
	if err != nil {
		return err
	}
	j.Spec = spec
	j.Revision++
	j.Approved = user.Role == RoleAdmin
	s.logJob(j)
	return nil
}

// ApproveJob marks the current revision runnable (admin only).
func (s *Server) ApproveJob(user *User, name string) error {
	if !Allowed(user.Role, PermApprovePipeline) {
		return fmt.Errorf("%w: %s (%s) may not approve pipelines", ErrForbidden, user.Name, user.Role)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return fmt.Errorf("%w: no job %q", ErrNotFound, name)
	}
	j.Approved = true
	s.logJob(j)
	return nil
}

// DeleteJob removes a stored pipeline. Queued builds of the job fail
// immediately with a typed error instead of rotting in the queue;
// running builds finish. Owners and admins may delete (with
// PermEditJob).
func (s *Server) DeleteJob(user *User, name string) error {
	if !Allowed(user.Role, PermEditJob) {
		return fmt.Errorf("%w: %s (%s) may not delete jobs", ErrForbidden, user.Name, user.Role)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.ownedJobLocked(user, name); err != nil {
		return err
	}
	delete(s.jobs, name)
	s.logStore(store.Record{T: store.TJobDeleted, Name: name})
	s.failQueuedLocked(func(b *Build) error {
		if b.Job == name {
			return fmt.Errorf("%w: job %q deleted while build %d was queued", ErrJobDeleted, name, b.ID)
		}
		return nil
	})
	return nil
}

// ownedJobLocked resolves a job user may change: its owner, or any
// admin. Callers hold s.mu.
func (s *Server) ownedJobLocked(user *User, name string) (*Job, error) {
	j, ok := s.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: no job %q", ErrNotFound, name)
	}
	if user.Role != RoleAdmin && j.Owner != user.Name {
		return nil, fmt.Errorf("%w: job %q belongs to %s", ErrForbidden, name, j.Owner)
	}
	return j, nil
}

// Job returns a copy of the named job.
func (s *Server) Job(name string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return Job{}, fmt.Errorf("%w: no job %q", ErrNotFound, name)
	}
	return *j, nil
}

// Jobs lists copies of the stored jobs, sorted by name.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Submit queues a build of the job's current revision, which must be
// approved. The build is compiled here and carries its own pipeline,
// like any spec build; only its label ties it to the job. The user
// needs PermRunJob.
func (s *Server) Submit(user *User, jobName string) (*Build, error) {
	if !Allowed(user.Role, PermRunJob) {
		return nil, fmt.Errorf("%w: %s (%s) may not run jobs", ErrForbidden, user.Name, user.Role)
	}
	j, err := s.Job(jobName)
	if err != nil {
		return nil, err
	}
	if !j.Approved {
		return nil, fmt.Errorf("%w: job %q revision %d awaits admin approval", ErrConflict, jobName, j.Revision)
	}
	return s.submit(user, jobName, j.Spec)
}

// admitLocked is the fairness half of admission control (the credit
// gate ran already): per-owner in-flight caps plus queue-watermark
// load-shedding, both answering typed ErrOverloaded (429) with a
// machine-readable shed reason. Admins are exempt — they operate the
// platform. The watermark is credit-aware: while credits are enforced,
// a submitter who passed the credit gate paid for headroom and only
// the doubled hard watermark sheds them. Callers hold s.mu.
func (s *Server) admitLocked(user *User, n int) error {
	if user.Role == RoleAdmin || user.Role == RolePeer {
		// Admins operate the platform; peer-relayed builds were already
		// admitted (and capped) on their home server.
		return nil
	}
	if cap := s.cfg.OwnerInFlightCap; cap > 0 && s.ownerActive[user.Name]+n > cap {
		s.m.shedOwnerCap++
		return overloadf(ShedOwnerCap,
			"accessserver: overloaded: %s has %d builds in flight (cap %d)",
			user.Name, s.ownerActive[user.Name], cap)
	}
	if wm := s.cfg.ShedWatermark; wm > 0 {
		depth := len(s.queue)
		limit := wm
		if s.creditsOn.Load() {
			limit = 2 * wm
		}
		if depth >= limit {
			s.m.shedWatermark++
			return overloadf(ShedQueueWatermark,
				"accessserver: overloaded: queue depth %d crossed the shed watermark %d",
				depth, limit)
		}
	}
	return nil
}

// enqueueLocked creates a build and appends it to the queue. The build
// carries its own constraints and body plus the wire spec they were
// compiled from, which the store needs for crash recovery. Callers hold
// s.mu.
func (s *Server) enqueueLocked(owner, jobName string, campaign int, cons Constraints, run RunFunc, spec *api.ExperimentSpec) *Build {
	queued := store.Record{T: store.TBuildQueued, Build: &store.BuildRec{
		ID: s.nextID, Job: jobName, Owner: owner, Campaign: campaign,
		Spec: spec, State: StateQueued.String(), QueuedAtNS: s.clock.Now().UnixNano(),
	}}
	b := &Build{cons: cons, run: run, camp: s.campaigns[campaign], workspace: NewWorkspace(), feed: s.hub.Create(s.nextID, 0)}
	applyBuild(&b.BuildRec, &queued)
	s.nextID++
	s.builds[b.ID] = b
	s.queuePushLocked(b)
	s.m.submitted++
	s.m.queued++
	s.ownerActive[owner]++
	s.logStore(queued)
	s.touchBuildLocked(b)
	return b
}

// The helpers below are the only code that may change which builds are
// in s.queue (drainLocked, which compacts the queue as it scans, calls
// uncountQueuedLocked itself). Each moves the build's preferred node's
// queued counter with it, which is what lets the census serve Queued
// without ever rescanning the queue, and the build's placement class's,
// which is what keeps a class alive exactly while builds of it are
// queued. Callers hold s.mu.

// queuePushLocked appends b to the dispatch queue and starts its aging
// watchdog: a build still queued after PendingTimeout whose node never
// appeared (or has gone offline) fails with a reason instead of pending
// forever.
func (s *Server) queuePushLocked(b *Build) {
	s.queueSeq++
	b.queueSeq = s.queueSeq
	s.queue = append(s.queue, b)
	s.countQueuedLocked(b)
	s.armAgingLocked(b)
}

// armAgingLocked arms b's next aging check, one PendingTimeout from now.
func (s *Server) armAgingLocked(b *Build) {
	b.watchFor(watchAging, s.clock.AfterFunc(s.cfg.PendingTimeout, func() { s.checkAging(b) }))
}

// queueIndexLocked finds b in the dispatch queue, which is ordered by
// queueSeq.
func (s *Server) queueIndexLocked(b *Build) (int, bool) {
	i, ok := slices.BinarySearchFunc(s.queue, b.queueSeq, func(q *Build, seq uint64) int {
		return cmp.Compare(q.queueSeq, seq)
	})
	return i, ok && s.queue[i] == b
}

// queueRemoveAtLocked takes s.queue[i] out of the dispatch queue.
func (s *Server) queueRemoveAtLocked(i int) {
	s.uncountQueuedLocked(s.queue[i])
	s.queue = slices.Delete(s.queue, i, i+1)
}

// failQueuedLocked fails every queued build why returns an error for,
// and keeps the rest in order.
func (s *Server) failQueuedLocked(why func(*Build) error) {
	kept := s.queue[:0]
	for _, b := range s.queue {
		if err := why(b); err != nil {
			s.uncountQueuedLocked(b)
			s.settleLocked(b, err)
			continue
		}
		kept = append(kept, b)
	}
	clear(s.queue[len(kept):]) // do not pin the failed builds
	s.queue = kept
}

// countQueuedLocked counts b, which is entering s.queue, in its placement
// class (created with its first build) and against its preferred node (a
// build without one counts on no node).
func (s *Server) countQueuedLocked(b *Build) {
	b.class = s.classes[b.cons]
	if b.class == nil {
		b.class = &placeClass{cons: b.cons}
		s.classes[b.cons] = b.class
	}
	b.class.queued++
	b.queuedOn = b.cons.Node
	if b.queuedOn != "" {
		s.queuedOn[b.queuedOn]++
		s.touchNodeLocked(b.queuedOn)
	}
}

// uncountQueuedLocked undoes countQueuedLocked for a build leaving
// s.queue.
func (s *Server) uncountQueuedLocked(b *Build) {
	if b.class.queued--; b.class.queued == 0 {
		delete(s.classes, b.cons)
	}
	b.class = nil
	node := b.queuedOn
	if node == "" {
		return
	}
	b.queuedOn = ""
	if s.queuedOn[node]--; s.queuedOn[node] <= 0 {
		delete(s.queuedOn, node)
	}
	s.touchNodeLocked(node)
}

// SubmitSpec compiles a declarative v1 experiment spec through the
// installed backend and queues it as a build — no pre-created job, no
// pipeline-approval round: the spec can only name vetted registry
// workloads. The user needs PermRunJob.
func (s *Server) SubmitSpec(user *User, spec api.ExperimentSpec) (*Build, error) {
	if !Allowed(user.Role, PermRunJob) {
		return nil, fmt.Errorf("%w: %s (%s) may not run experiments", ErrForbidden, user.Name, user.Role)
	}
	return s.submit(user, "", spec)
}

// submit is the one way a single build enters the queue: credit gate,
// compile, admission, enqueue, dispatch. job names the §3.1 job the
// build belongs to, "" for a direct spec submission.
func (s *Server) submit(user *User, job string, spec api.ExperimentSpec) (*Build, error) {
	if err := s.creditGate(user, 1); err != nil {
		return nil, err
	}
	cons, run, err := s.compile(spec)
	if err != nil {
		return nil, err
	}
	defer s.holdClock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	label := job
	if job == "" {
		label = specJobName(spec)
	} else if _, ok := s.jobs[job]; !ok {
		// DeleteJob won the race with the compile: its sweep of the queue
		// is over, so this build must not slip in behind it.
		return nil, fmt.Errorf("%w: job %q was deleted", ErrNotFound, job)
	}
	if err := s.admitLocked(user, 1); err != nil {
		return nil, err
	}
	b := s.enqueueLocked(user.Name, label, 0, cons, run, &spec)
	s.exit.redrain = true
	return b, nil
}

// compile turns a spec into a pipeline through the installed backend.
func (s *Server) compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	backend, err := s.specBackend()
	if err != nil {
		return Constraints{}, nil, err
	}
	return s.compileVia(backend, spec)
}

// compileVia compiles spec through backend. The node may live on a
// federation peer: a spec this server cannot compile still compiles
// when a peer advertises its vantage point (the peer compiles it for
// real on relay submit).
func (s *Server) compileVia(backend SpecBackend, spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	cons, run, err := backend.Compile(spec)
	if err != nil {
		return s.compileForPeer(spec, err)
	}
	return cons, run, nil
}

// SubmitCampaign atomically queues one build per experiment in the
// campaign: every spec is compiled before any is enqueued, so a
// campaign with one bad spec queues nothing. Builds fan out across
// vantage points through the normal scheduler (per-node/device locks,
// executor cap) plus the campaign's own MaxConcurrent bound. It returns
// the campaign id and its builds, index-aligned with the specs.
func (s *Server) SubmitCampaign(user *User, cs api.CampaignSpec) (int, []*Build, error) {
	if !Allowed(user.Role, PermRunJob) {
		return 0, nil, fmt.Errorf("%w: %s (%s) may not run experiments", ErrForbidden, user.Name, user.Role)
	}
	backend, err := s.specBackend()
	if err != nil {
		return 0, nil, err
	}
	if err := cs.Validate(); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if len(cs.Experiments) > MaxCampaignExperiments {
		return 0, nil, fmt.Errorf("%w: campaign has %d experiments (max %d)",
			ErrInvalid, len(cs.Experiments), MaxCampaignExperiments)
	}
	if err := s.creditGate(user, len(cs.Experiments)); err != nil {
		return 0, nil, err
	}
	type compiled struct {
		cons Constraints
		run  RunFunc
		name string
	}
	pipelines := make([]compiled, len(cs.Experiments))
	for i, spec := range cs.Experiments {
		cons, run, err := s.compileVia(backend, spec)
		if err != nil {
			return 0, nil, fmt.Errorf("experiments[%d]: %w", i, err)
		}
		pipelines[i] = compiled{cons, run, specJobName(spec)}
	}
	defer s.holdClock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(user, len(pipelines)); err != nil {
		return 0, nil, err
	}
	id := s.nextCampaign
	s.nextCampaign++
	s.m.campaigns++
	rec := &campaignRec{maxConcurrent: cs.MaxConcurrent}
	s.campaigns[id] = rec
	builds := make([]*Build, len(pipelines))
	for i, p := range pipelines {
		spec := cs.Experiments[i]
		builds[i] = s.enqueueLocked(user.Name, p.name, id, p.cons, p.run, &spec)
		rec.builds = append(rec.builds, builds[i].ID)
	}
	s.logStore(store.Record{T: store.TCampaign, Campaign: &store.CampaignRec{
		ID: id, MaxConcurrent: rec.maxConcurrent, Builds: append([]int(nil), rec.builds...),
	}})
	s.exit.camps = append(s.exit.camps, id)
	s.exit.redrain = true
	return id, builds, nil
}

// MaxCampaignExperiments bounds one campaign submission; larger sweeps
// split into multiple campaigns.
const MaxCampaignExperiments = 1024

// specJobPrefix starts the label of every build that belongs to no job;
// job names may not use it.
const specJobPrefix = "spec:"

// specJobName labels a direct spec build for status displays.
func specJobName(spec api.ExperimentSpec) string {
	return specJobPrefix + spec.Workload.Name + "@" + spec.Node
}

// CampaignBuildIDs resolves a campaign's build ids in submission order
// (stable even after individual builds expire — resolve each id with
// Build, which answers ErrExpired for tombstoned members). A campaign
// whose every member aged out is itself evicted and answers
// ErrExpired.
func (s *Server) CampaignBuildIDs(id int) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.campaigns[id]
	if !ok {
		if id >= 1 && id < s.nextCampaign {
			return nil, fmt.Errorf("%w: campaign %d expired after its %s retention window", ErrExpired, id, s.cfg.Retention)
		}
		return nil, fmt.Errorf("%w: no campaign %d", ErrNotFound, id)
	}
	return append([]int(nil), rec.builds...), nil
}

// Abort cancels a build: a queued build (in the queue or waiting out a
// failover backoff) settles aborted at once; a running build has its
// pipeline's cancel hook invoked (the measurement session tears down and
// the build finishes canceled). Aborting a finished build is a conflict.
// The user needs PermRunJob and must own the build (admins may cancel
// anyone's).
func (s *Server) Abort(user *User, id int) error {
	if !Allowed(user.Role, PermRunJob) {
		return fmt.Errorf("%w: %s (%s) may not cancel builds", ErrForbidden, user.Name, user.Role)
	}
	b, err := s.Build(id)
	if err != nil {
		return err
	}
	if user.Role != RoleAdmin && b.Owner != user.Name {
		return fmt.Errorf("%w: build %d belongs to %s", ErrForbidden, id, b.Owner)
	}
	// Every transition takes s.mu, so none interleaves between reading
	// the state and acting on it: a finished build reliably answers
	// conflict instead of gaining a bogus persisted canceled marker.
	s.mu.Lock()
	defer s.mu.Unlock()
	want := store.Record{T: store.TBuildCancelWant, BuildID: b.ID}
	b.mu.Lock()
	state := BuildState(b.BuildRec.State)
	if state == StateQueued || state == StateRunning {
		applyBuild(&b.BuildRec, &want)
	}
	fn := b.canceler
	b.mu.Unlock()
	switch state {
	case StateQueued:
		// In the queue, or sitting out a failover backoff: nothing is
		// running, so the build settles here and now, and its finished
		// record carries the cancel.
		if i, ok := s.queueIndexLocked(b); ok {
			s.queueRemoveAtLocked(i)
		}
		s.settleLocked(b, nil)
		return nil
	case StateRunning:
		// The pipeline's OnCancel hook settles it. The flag is WAL-logged
		// first, so a server that crashes before the build settles recovers
		// it as aborted instead of rerunning a canceled experiment; the
		// hook itself runs once the lock drops (it tears down a session,
		// which may re-enter the server through the build's done callback).
		s.logStore(want)
		s.touchBuildLocked(b) // the served status carries Canceled now
		if fn != nil {
			s.exit.cancels = append(s.exit.cancels, fn)
		}
		return nil
	}
	return fmt.Errorf("%w: build %d already finished (%s)", ErrConflict, id, state)
}

// Build resolves a build by id. Builds past their retention window are
// evicted; asking for one returns ErrExpired (ids are monotonic, so any
// id below the high-water mark that is absent from the table must have
// existed and aged out).
func (s *Server) Build(id int) (*Build, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.builds[id]
	if !ok {
		if id >= 1 && id < s.nextID {
			return nil, fmt.Errorf("%w: build %d expired after its %s retention window", ErrExpired, id, s.cfg.Retention)
		}
		return nil, fmt.Errorf("%w: no build %d", ErrNotFound, id)
	}
	return b, nil
}

// QueueLength reports builds in state queued: the dispatchable queue
// plus failed-over builds sitting out their retry backoff. The backoff
// builds matter for a virtual clock's DriveWhile (DriveBuilds): their
// requeue timers only fire if the clock keeps advancing, so a driver
// that froze time when the dispatch queue emptied would strand them.
//
// Like Running it is a section-exit snapshot: an atomic load of the count
// the last critical section to finish stored before it released s.mu. A
// driver that asks once per clock step takes no lock and never sees a
// section half done.
func (s *Server) QueueLength() int { return int(s.queuedNow.Load()) }

// Running reports in-flight builds, as QueueLength reports queued ones.
func (s *Server) Running() int { return int(s.runningNow.Load()) }

// dispatch drains the queue in batches: one s.mu acquisition claims
// every build whose constraints are satisfiable right now in a single
// placement pass, then the claimed pipelines start outside the lock.
// On a virtual clock the whole drain runs under a clock hold: pipeline
// setup is synchronous (RunFuncs schedule their session timers before
// returning), and a concurrent DriveWhile (batterylab.DriveBuilds) must
// not advance the clock to some unrelated far-future deadline mid-setup
// — every build dispatched in one pass starts at the same instant it
// was dispatched at, deterministically; the release then wakes it.
//
// dispatch is non-reentrant by design: a call arriving while a drain
// loop is active (a pipeline completing synchronously inside
// startPicked, a probe result, a heartbeat on another goroutine) sets
// the redispatch flag and returns; the active loop rescans. The old
// per-build implementation recursed finish→dispatch→start→finish…,
// growing the stack linearly with queue depth for synchronous
// pipelines — this loop is that recursion converted to iteration.
func (s *Server) dispatch() {
	defer s.holdClock()()
	s.mu.Lock()
	if s.dispatching {
		s.redispatch = true
		s.mu.Unlock()
		return
	}
	s.dispatching = true
	for {
		s.redispatch = false
		picks, probes := s.drainLocked()
		s.mu.Unlock()

		// Launch every collected probe whether or not builds were also
		// picked: drainLocked latched cpuProbing for each, and dropping
		// one here would leave its node skipped ("probing controller
		// CPU") on every future scan with no probe ever in flight.
		progressed := false
		for _, pr := range probes {
			if _, inProcess := pr.node.(Pinger); inProcess {
				// In-process (the same marker the heartbeat prober
				// uses): probe synchronously — cheap, cannot hang, and
				// deterministic under the virtual clock — then rescan
				// with the fresh reading.
				pct, ok := parseCPU(pr.node.Exec("status"))
				s.recordCPU(pr.name, pct, ok)
				progressed = true
				continue
			}
			go func(pr cpuProbe) {
				pct, ok := parseCPU(pr.node.Exec("status"))
				s.recordCPU(pr.name, pct, ok)
				s.dispatch()
			}(pr)
		}
		for _, p := range picks {
			s.startPicked(p)
		}

		s.mu.Lock()
		// Rescan when a synchronous completion (or any concurrent
		// dispatch call) asked for it, or a synchronous probe refreshed
		// a reading the pass skipped on. A pass that merely started
		// builds needs no rescan: it already drained everything
		// claimable, and lock/executor state only changed in ways the
		// pass itself accounted for.
		if !s.redispatch && !progressed {
			break
		}
	}
	s.dispatching = false
	s.mu.Unlock()
}

// holdClock keeps a concurrent DriveWhile from advancing a virtual
// clock until the returned release runs (a no-op on any other clock).
// Holds nest. Submissions take one before they enqueue and keep it
// across their dispatch: a build that can start at once must start at
// the instant it was submitted, which a step landing between the
// enqueue and the dispatch would break.
func (s *Server) holdClock() (release func()) {
	if v, ok := s.clock.(*simclock.Virtual); ok {
		return v.Hold()
	}
	return func() {}
}

// cpuProbe is one pending RequireLowCPU probe request, carried out of
// the scheduler lock.
type cpuProbe struct {
	name string
	node Node
}

// pick is one dispatchable build with its resolved placement. node is
// nil for a remote placement (the pipeline is the synthesized relay
// body and the vantage point lives on pl.peer's server).
type pick struct {
	b        *Build
	run      RunFunc
	node     Node
	nodeName string
	device   string
}

// placement is placeLocked's resolution: where a build may run right
// now. node is nil for remote placements — the build routes to a
// vantage point peer advertised in its census, reachable at peerURL.
// pinned marks the preferred node itself, local and online; such a
// placement carries no score, claimLocked computes it.
type placement struct {
	node     Node
	nodeName string
	device   string
	score    float64
	pinned   bool
	peer     string // "" = local
	peerURL  string
}

// lockName is the mutual-exclusion namespace of the placement's node:
// remote nodes are keyed per peer, so a peer's "pixel-1" never contends
// with a local node of the same name.
func (pl placement) lockName() string {
	if pl.peer == "" {
		return pl.nodeName
	}
	return pl.peer + "!" + pl.nodeName
}

// Pending-reason priorities, which are also the categories the
// blab_queue_pending gauge counts. A build skipped for several reasons in
// one pass reports the highest-priority one — stably, instead of
// whichever check happened to run last. Executor saturation outranks
// everything (nothing dispatches regardless of other conditions, and
// it lets the pass stop evaluating the tail of a deep queue); below
// it, the order runs from policy caps down to transient gates. None
// (next in line) and a failover's retry are no drain verdict.
const (
	prioNone = iota
	prioExecutor
	prioCampaignCap
	prioOwnerCap
	prioNodeUnavailable
	prioLockWait
	prioCPUProbe
	prioCPUGate
	prioRetry
)

// drainLocked is the single placement pass: it scans the queue once,
// claiming every build that can start now (locks, counters and leases
// are taken immediately, so later candidates in the same pass see the
// updated state) and recording a stable pending reason for every build
// it skips. It also collects CPU probes to launch. Node probes (CPU
// gating) never run under s.mu: fresh cache values decide
// immediately; stale ones trigger a probe — in place for in-process
// nodes, on a goroutine for remote ones — and the candidate is skipped
// for this pass, so one hung node cannot delay dispatch (or Submit,
// Abort, status) for everyone else. Callers hold s.mu.
//
// The pass places classes, not builds: a candidate reads where it may run
// and whether its lock is free off its class's verdict, which is computed
// (judgeLocked) only when the class has none that is still valid — see
// placeClass for when that is. Everything specific to the build stays per
// build: the campaign and owner caps before the verdict, the CPU gate —
// which latches probes — after it.
func (s *Server) drainLocked() ([]*pick, []cpuProbe) {
	var picks []*pick
	var probes []cpuProbe
	now := s.clock.Now()
	s.placeEpoch++ // a verdict that is not pinned dies with the pass that computed it
	// The queue is compacted in place: w is the write index, engaged at
	// the first claim (-1 until then). A pass that claims nothing —
	// every pass after saturation — leaves s.queue untouched and
	// allocates nothing.
	w := -1
	for i := 0; i < len(s.queue); i++ {
		cand := s.queue[i]
		if s.running >= s.cfg.Executors {
			// Saturated: nothing below can dispatch, and saturation is
			// the one condition that applies to every remaining build
			// identically — label the tail without evaluating
			// (expensive) placement and stop scanning.
			s.labelSaturatedLocked(s.queue[i:])
			if w >= 0 {
				w += copy(s.queue[w:], s.queue[i:])
			}
			break
		}
		s.m.drainVisits++
		class := cand.class

		// Evaluate the skip conditions in priority order; the first
		// failing check is by construction the highest-priority reason,
		// so the recorded pending reason cannot churn between checks
		// evaluated later in the same pass.
		prio, reason := prioNone, ""
		if rec := cand.camp; rec != nil &&
			rec.maxConcurrent > 0 && rec.running >= rec.maxConcurrent {
			prio, reason = prioCampaignCap, "campaign concurrency cap reached"
		}
		if cap := s.cfg.OwnerRunCap; prio == prioNone && cap > 0 && s.ownerRunning[cand.Owner] >= cap {
			prio, reason = prioOwnerCap, joinedReason(cand.schedReason,
				"owner ", cand.Owner, " at the fair-share cap (", strconv.Itoa(cap), " running)")
		}
		if prio == prioNone {
			if !s.verdictValidLocked(class, now) {
				s.judgeLocked(class, now)
			}
			switch {
			case class.pl.nodeName == "":
				prio, reason = prioNodeUnavailable, class.reason
			case class.held:
				prio, reason = prioLockWait, class.wait
			}
		}
		// The CPU gate only applies to local placements: a routed build's
		// home peer enforces its own gate when it dispatches the relayed
		// spec.
		if pl := &class.pl; prio == prioNone && cand.cons.RequireLowCPU && pl.peer == "" {
			rec := s.nodeRecs[pl.nodeName]
			fresh := rec.cpuOK && rec.cpuAt.Add(cpuProbeTTL).After(now)
			switch {
			case !fresh:
				// A probe counts as in flight only within the node-loss
				// window; past it, the probe is presumed stuck on a
				// half-open connection and a new one may launch.
				inFlight := rec.cpuProbing && now.Sub(rec.cpuProbeAt) < s.cfg.OfflineAfter
				if !inFlight {
					rec.cpuProbing = true
					rec.cpuProbeAt = now
					probes = append(probes, cpuProbe{name: pl.nodeName, node: pl.node})
				}
				prio, reason = prioCPUProbe, "probing controller CPU"
			case rec.cpuPct >= lowCPUThreshold:
				prio, reason = prioCPUGate, fmt.Sprintf("controller CPU %.0f%% above the %.0f%% gate", rec.cpuPct, lowCPUThreshold)
			}
		}
		if prio != prioNone {
			s.skipLocked(cand, prio, reason)
			if w >= 0 {
				s.queue[w] = cand
				w++
			}
			continue
		}

		// Claim. The build leaves the queue by not advancing the write
		// index past it.
		if w < 0 {
			w = i
		}
		picks = append(picks, s.claimLocked(cand, class.pl, class.key, now))
	}
	if w >= 0 {
		// Nil the vacated tail so the backing array does not pin
		// removed builds past their retention window.
		for j := w; j < len(s.queue); j++ {
			s.queue[j] = nil
		}
		s.queue = s.queue[:w]
	}
	return picks, probes
}

// skipLocked records a skipped build's pending reason and its category
// through the s.mu-guarded shadow, taking b.mu only when the reason
// actually changed — the drain labels every skipped build every pass, and
// on a deep queue almost all of those labels are repeats. A changed
// reason is republished so snapshot-served status polls surface it.
// Callers hold s.mu.
func (s *Server) skipLocked(b *Build, prio int, reason string) {
	b.schedPrio = prio
	if b.schedReason != reason {
		b.schedReason = reason
		b.mu.Lock()
		b.pendingReason = reason
		b.mu.Unlock()
		s.touchBuildLocked(b)
	}
}

// joinedReason returns the concatenation of parts, and returns prev
// itself when prev already reads exactly that: nearly every label the
// drain computes repeats the previous pass's, so the common case formats
// and allocates nothing.
func joinedReason(prev string, parts ...string) string {
	rest, same := prev, true
	for _, p := range parts {
		if same {
			rest, same = strings.CutPrefix(rest, p)
		}
	}
	if same && rest == "" {
		return prev
	}
	return strings.Join(parts, "")
}

// execWait is the pending reason of every build behind the point where
// a drain pass ran out of executors.
const execWait = "waiting for a free executor"

// labelSaturatedLocked labels tail — the queue from the point where the
// pass ran out of executors — with execWait, without walking the part
// that already carries it. Labels in the queue always read, in order:
// builds some pass evaluated (any other reason), builds a saturated
// pass labelled execWait, builds that joined since. Only a pass's
// evaluated prefix is ever relabelled with another reason, so the middle
// run is contiguous: the walk labels from the front until it meets it,
// then resumes behind s.execLabelled, the queue sequence number that run
// is known to reach. Callers hold s.mu.
func (s *Server) labelSaturatedLocked(tail []*Build) {
	i := 0
	for i < len(tail) && tail[i].schedReason != execWait {
		s.skipLocked(tail[i], prioExecutor, execWait)
		i++
	}
	// s.queue is ordered by queueSeq: everything from i up to the
	// watermark is labelled already.
	i += sort.Search(len(tail)-i, func(n int) bool { return tail[i+n].queueSeq > s.execLabelled })
	for _, b := range tail[i:] {
		s.skipLocked(b, prioExecutor, execWait)
	}
	s.execLabelled = tail[len(tail)-1].queueSeq
}

// placeLocked resolves where a build may run right now: its preferred
// node when registered and online, a peer-advertised vantage point of
// the same name (the relay resubmits the build's wire spec there), or —
// for fallback-enabled builds — the highest-scoring online candidate,
// local nodes and remote census entries scored by the same placer
// (remote ones carry the ScoreWeights.Remote penalty). An empty
// nodeName comes with the human-readable reason the build keeps
// waiting. Callers hold s.mu.
//
// This is the one body that computes a placement; the drain pass reaches
// it through judgeLocked and keeps the answer per class (see placeClass).
// That rests on what each case reads. The first reads the preferred
// node's handle, lifecycle flags and last beat and nothing else: whoever
// changes one of those bumps the node's version (touchNodeLocked). Every
// other case reads the fleet, the lock table, running counts, peer
// censuses and the clock.
func (s *Server) placeLocked(cons Constraints, now time.Time) (placement, string) {
	rec := s.nodeRecs[cons.Node]
	var reason string
	switch {
	case rec != nil && rec.node != nil:
		h := s.healthLocked(rec, now)
		if h == HealthOnline {
			// Pinned placement: the preferred node is up, so it wins
			// outright — scoring only arbitrates substitutes. The score
			// the status surface shows for it is claimLocked's to compute.
			return placement{node: rec.node, nodeName: cons.Node, device: cons.Device, pinned: true}, ""
		}
		reason = fmt.Sprintf("node %q is %s", cons.Node, h)
	case rec != nil && rec.Removed:
		reason = fmt.Sprintf("node %q was removed", cons.Node)
	default:
		reason = fmt.Sprintf("waiting for node %q to register", cons.Node)
	}
	var remotes []cluster.Candidate
	if s.peerRelay != nil {
		remotes = s.cluster.Candidates(now)
	}
	// Remote pinned: an online peer advertises a node with exactly the
	// requested name (first peer in name order wins — deterministic).
	// Like the local fast path this needs no Fallback flag: the build
	// still runs on the node it asked for, just via its home server.
	for _, c := range remotes {
		if !advertises(c.Node, cons.Node, cons.Device) {
			continue
		}
		pc := remoteCandidate(c, cons.Device, cons.Device)
		return placement{nodeName: c.Node.Name, device: cons.Device,
			score: s.placer.Score(pc), peer: c.Peer, peerURL: c.PeerURL}, ""
	}
	if !cons.Fallback {
		return placement{}, reason
	}
	// Fallback placement: score every eligible (node, device) pair and
	// take the best. Local nodes scan first in sorted order, then remote
	// candidates in (peer, node) order; strict > keeps the first pair on
	// ties, so substitution stays deterministic run to run and local
	// nodes win score ties against remote ones.
	var (
		best  placement
		found bool
	)
	consider := func(pl placement, score float64) {
		if s.lockHeldLocked(cons.lockKey(pl)) {
			return
		}
		if !found || score > best.score {
			pl.score = score
			best, found = pl, true
		}
	}
	for _, name := range s.nodeNames {
		sub := s.nodeRecs[name]
		if !s.substituteLocked(sub, cons.Node, now) {
			continue
		}
		local := func(device string) {
			consider(placement{node: sub.node, nodeName: name, device: device},
				s.placer.Score(s.candidateLocked(sub, device, cons.Device, now)))
		}
		if cons.Device == "" {
			local("")
			continue
		}
		for _, d := range sub.Devices {
			local(d)
		}
	}
	for _, c := range remotes {
		if c.Node.Name == cons.Node {
			continue // the remote pinned path already rejected it
		}
		devices := c.Node.Devices
		if len(devices) == 0 && cons.Device == "" {
			// Not enumerated (see advertises): the peer offers no serial,
			// which suits exactly a device-free spec — substituting a
			// pinned device needs a concrete one to offer.
			devices = []string{""}
		}
		for _, d := range devices {
			consider(placement{nodeName: c.Node.Name, device: d, peer: c.Peer, peerURL: c.PeerURL},
				s.placer.Score(remoteCandidate(c, d, cons.Device)))
		}
	}
	if found {
		return best, ""
	}
	return placement{}, reason + "; no fallback node available"
}

// remoteCandidate assembles the scored view of a peer-advertised
// (node, device) pair. Health is online by construction (the registry
// filters candidates), and the reliability fields stay zero — this
// server has no local telemetry for a remote vantage point; the flat
// ScoreWeights.Remote penalty stands in for that uncertainty.
func remoteCandidate(c cluster.Candidate, device, wantDevice string) PlacementCandidate {
	pc := PlacementCandidate{
		Node:    c.Node.Name,
		Device:  device,
		Peer:    c.Peer,
		Health:  HealthOnline,
		Running: c.Node.Running,
	}
	if wantDevice != "" && device != "" {
		pc.ModelMatch = DeviceModel(device) == DeviceModel(wantDevice)
	}
	return pc
}

// startPicked runs a claimed build's pipeline.
func (s *Server) startPicked(p *pick) {
	b := p.b
	b.mu.Lock()
	attempt := b.BuildRec.Attempts
	b.mu.Unlock()

	ctx := &BuildContext{Build: b, Node: p.node, Device: p.device, attempt: attempt}
	if attempt > 1 {
		ctx.Logf("build #%d of %s started on %s (attempt %d)", b.ID, b.Job, p.nodeName, attempt)
	} else {
		ctx.Logf("build #%d of %s started on %s", b.ID, b.Job, p.nodeName)
	}

	var once sync.Once
	done := func(err error) {
		once.Do(func() {
			s.finish(b, attempt, err)
		})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				done(fmt.Errorf("pipeline panic: %v", r))
			}
		}()
		p.run(ctx, done)
	}()
}

// lockKey names what a running build holds for mutual exclusion: one
// device under a lock name, or — no device — the whole name. The name is
// the placement's node, "peer!node" for a routed build.
type lockKey struct{ name, device string }

// String is the key as pending reasons spell it: "node/device" or "node".
func (k lockKey) String() string {
	if k.device == "" {
		return k.name
	}
	return k.name + "/" + k.device
}

// lockKey computes the lock a build under c holds on pl: the device's, or
// the node's when the build names no device (it still serializes per
// node) or needs the whole node.
func (c Constraints) lockKey(pl placement) lockKey {
	if c.WholeNode {
		return lockKey{name: pl.lockName()}
	}
	return lockKey{name: pl.lockName(), device: pl.device}
}

// lockHeldLocked reports whether k conflicts with a held lock: a device
// with itself and with the whole of its name, the whole name with
// anything held under it. The name's entry decides, whatever is held
// elsewhere. Callers hold s.mu.
func (s *Server) lockHeldLocked(k lockKey) bool {
	under := s.locks[k.name]
	if len(under) == 0 {
		return false
	}
	_, whole := under[""]
	_, device := under[k.device]
	return k.device == "" || whole || device
}

// parseCPU extracts the cpu=NN.N% field from a node's status output.
func parseCPU(out string, err error) (float64, bool) {
	if err != nil {
		return 0, false
	}
	for _, f := range strings.Fields(out) {
		if strings.HasPrefix(f, "cpu=") {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(f, "cpu="), "%"), 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// recordCPU stores a probe result in the node's cache. A failed probe
// records "not low" so the gate stays closed until the node answers.
func (s *Server) recordCPU(name string, pct float64, ok bool) {
	s.mu.Lock()
	rec := s.recLocked(name)
	rec.cpuProbing = false
	rec.cpuOK = true
	rec.cpuAt = s.clock.Now()
	if ok {
		rec.cpuPct = pct
	} else {
		rec.cpuPct = 100
	}
	s.mu.Unlock()
}

// checkAging fails a build that is still queued after PendingTimeout
// with no node to run it: the target never registered, was removed, or
// is offline. Builds waiting on a live-but-busy node are untouched.
func (s *Server) checkAging(b *Build) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, queued := s.queueIndexLocked(b)
	if !queued {
		return // dispatched, finished, or in a failover backoff window
	}
	cons := b.cons
	now := s.clock.Now()
	// Aging only fires when no viable node is alive. A placeable build
	// waits on lock/executor pressure, not node loss; otherwise the
	// preferred node, or — for fallback builds — any online monitored
	// substitute. A live-but-busy node means the queue is draining and the
	// build will run; killing it would lose campaign tails whose backlog on
	// the survivor exceeds PendingTimeout. Alive, it keeps being watched in
	// case the node dies later.
	pl, _ := s.placeLocked(cons, now)
	rec := s.nodeRecs[cons.Node]
	alive := pl.nodeName != "" || rec != nil && s.healthLocked(rec, now) != HealthOffline
	if !alive && cons.Fallback {
		for _, sub := range s.nodeRecs {
			if s.substituteLocked(sub, cons.Node, now) {
				alive = true
				break
			}
		}
	}
	if !alive && s.peerRelay != nil {
		// Federation keeps pinned builds waiting too: a peer that is
		// not offline and advertises the requested node (or, for
		// fallback builds, any online node) may take the build on its
		// next heartbeat.
		for _, p := range s.cluster.Peers() {
			if st, _, ok := s.cluster.PeerState(p.Name, now); !ok || st == cluster.StateOffline {
				continue
			}
			for _, n := range p.Nodes {
				if n.Name == cons.Node || (cons.Fallback && n.Health == api.HealthOnline) {
					alive = true
					break
				}
			}
			if alive {
				break
			}
		}
	}
	if alive {
		s.armAgingLocked(b)
		return
	}
	s.queueRemoveAtLocked(idx)
	s.m.agedOut++
	reason := b.PendingReason()
	if reason == "" {
		reason = "its node never appeared"
	}
	s.settleLocked(b, fmt.Errorf("%w: build %d waited %s: %s",
		ErrNodeLost, b.ID, s.cfg.PendingTimeout, reason))
}

// finish completes a running build: it gives back what the build held,
// settles it, charges its device time and asks for a drain pass.
// Completions from a failed-over attempt (the done() of a pipeline the
// scheduler already reclaimed) are stale and ignored. A build whose
// pipeline errored after an explicit cancel request settles as aborted,
// not failed — the distinction the v1 Canceled flag carries to remote
// clients.
func (s *Server) finish(b *Build, attempt int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !b.live(attempt) {
		b.mu.Lock()
		fmt.Fprintf(&b.log, "ignoring stale completion from attempt %d\n", attempt)
		b.mu.Unlock()
		return
	}
	s.releaseLocked(b)
	s.settleLocked(b, err)
	s.chargeRunLocked(b)
	s.exit.redrain = true
}

// scheduleRetention purges a finished build's workspace and log after
// the retention window and evicts the record itself to a tombstone:
// s.builds stops growing without bound, and Build(id) answers
// ErrExpired for ids that aged out. A campaign whose last member
// expires is evicted with it, closing the same growth leak one level
// up.
func (s *Server) scheduleRetention(b *Build) {
	s.clock.AfterFunc(s.cfg.Retention, func() {
		b.workspace.purge()
		b.mu.Lock()
		b.log.Reset()
		b.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.builds, b.ID)
		s.exit.expired = append(s.exit.expired, b.ID)
		s.logStore(store.Record{T: store.TBuildExpired, BuildID: b.ID})
		if rec := s.campaigns[b.Campaign]; rec != nil {
			live := false
			for _, bid := range rec.builds {
				if _, ok := s.builds[bid]; ok {
					live = true
					break
				}
			}
			if !live {
				delete(s.campaigns, b.Campaign)
				s.exit.camps = append(s.exit.camps, b.Campaign)
				s.logStore(store.Record{T: store.TCampaignExpired, CampaignID: b.Campaign})
			}
		}
	})
}

// Kick re-evaluates the queue (used after node registration and by the
// periodic scheduler tick).
func (s *Server) Kick() { s.dispatch() }

// Cron registers a recurring maintenance task executed directly against
// a node (outside the build queue), every period. It returns a stop
// function. The paper's examples: renewing wildcard certificates,
// ensuring the power meter is off when idle, factory-resetting devices.
func (s *Server) Cron(name string, period time.Duration, task func()) (stop func()) {
	entry := &cronEntry{name: name}
	entry.ticker = simclock.NewTicker(s.clock, period, func(time.Time) {
		entry.runs.Add(1)
		task()
	})
	s.mu.Lock()
	s.crons = append(s.crons, entry)
	s.mu.Unlock()
	return entry.ticker.Stop
}

// CronRuns reports how many times the named cron fired.
func (s *Server) CronRuns(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.crons {
		if c.name == name {
			return int(c.runs.Load())
		}
	}
	return 0
}
