package accessserver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// RunFunc is a job's pipeline body. It receives the build context and a
// completion callback; maintenance jobs call done synchronously, while
// experiment jobs typically hand a workload script to an automation
// executor and call done from its completion callback. done must be
// called exactly once.
type RunFunc func(ctx *BuildContext, done func(error))

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

// Job is a stored pipeline (§3.1): a named, revisioned experiment spec.
// New jobs and every revision require administrator approval before
// they can run. The server's own records are guarded by s.mu; callers
// get copies (Server.Job, Server.Jobs).
type Job struct {
	Name  string
	Owner string
	// Spec is the current revision's experiment. A build of the job is
	// compiled from the Spec it was submitted at and keeps it: a later
	// edit never changes what an already-queued build runs.
	Spec api.ExperimentSpec
	// Approved reports whether the current revision may run.
	Approved bool
	Revision int
}

// BuildState tracks a build through its life. The values are the
// strings the store's records and the wire status carry.
type BuildState string

// Build states.
const (
	StateQueued  BuildState = "queued"
	StateRunning BuildState = "running"
	StateSuccess BuildState = "success"
	StateFailure BuildState = "failure"
	StateAborted BuildState = "aborted"
)

func (s BuildState) String() string { return string(s) }

// Terminal reports whether the build has settled for good: success,
// failure or aborted (api.BuildStatus.Terminal is the wire form's).
func (s BuildState) Terminal() bool {
	return s == StateSuccess || s == StateFailure || s == StateAborted
}

// Build is one execution of a job or of a directly submitted v1 spec.
type Build struct {
	// BuildRec is the build's durable state, kept as the record a
	// snapshot stores: there is no second copy to keep in step. ID, Job,
	// Owner (the submitting user; cancellation is restricted to the owner
	// and admins), Campaign (builds submitted together via
	// SubmitCampaign; 0 = standalone) and Spec (the wire spec cons/run
	// were compiled from, which crash recovery recompiles and a relay
	// resubmits to a peer) are fixed at submission. The rest is guarded by
	// mu and changes only through applyBuild (persist.go), with the
	// record that logs the change. Four fields share their name with an
	// accessor and are reached as b.BuildRec.State, .Attempts, .Retries
	// and .FeedEpoch.
	//
	// Attempts is the dispatch token: each dispatch increments it, and
	// completions carrying an older token (a pipeline the scheduler
	// already reclaimed from a lost node) are stale. Retries counts
	// failover requeues against the retry budget. FeedEpoch counts how
	// many times the feed started over (once per recovery), so streaming
	// clients can invalidate stale resume cursors.
	store.BuildRec

	// cons/run are the build's own pipeline, compiled at submit time
	// from Spec.
	cons Constraints
	run  RunFunc
	// recovered marks a build reconstructed from the store after a
	// restart (the wire status carries it to clients).
	recovered bool
	// feed is the build's event/sample stream, owned and registered by
	// the server's feed hub (lifecycle — close, eviction — runs through
	// the hub, never through this handle). Set once at construction,
	// immutable after.
	feed *feedhub.Feed

	mu        sync.Mutex
	log       strings.Builder
	workspace *Workspace
	err       error
	// reported is the digest the pipeline handed over with SetSummary;
	// the finished record carries it into BuildRec.Summary.
	reported *api.RunSummary
	canceler func()

	routedVia      string  // peer executing the current/last attempt ("" = local)
	pendingReason  string  // why a queued build is not running yet
	placementScore float64 // placer score of the current/last placement
	// schedReason shadows pendingReason for the dispatch pass, guarded
	// by s.mu rather than b.mu: the drain labels every skipped build
	// every pass, and the shadow lets it skip the per-build lock when
	// the reason has not changed (the overwhelmingly common case on a
	// deep queue). Every writer of pendingReason that holds s.mu must
	// keep the two in sync. schedPrio is the reason's category, recorded
	// by whoever chose it (a prio constant; see pendingCategories).
	schedReason string
	schedPrio   int
	// touched marks a build the current critical section changed, whose
	// status its exit republishes (touchBuildLocked). Guarded by s.mu.
	touched bool
	// queuedOn is the node this build is counted against in the server's
	// per-node queued counters while it sits in the dispatch queue (""
	// otherwise). Guarded by s.mu.
	queuedOn string
	// class is the placement class the build is counted in while it sits
	// in the dispatch queue, nil otherwise (see placeClass): the verdict
	// the drain pass reads instead of placing the build. Guarded by s.mu.
	class *placeClass
	// camp is the build's campaign record, nil for a standalone build —
	// s.campaigns[Campaign], resolved once instead of at every visit of
	// the drain pass. Set at construction, immutable after.
	camp *campaignRec
	// queueSeq is the build's position in the order builds entered the
	// dispatch queue (a requeue takes a new one). Guarded by s.mu.
	queueSeq uint64
	// held is the lock the running attempt holds, zero when the build
	// holds nothing — the one record of what claimLocked took and
	// releaseLocked must give back. Guarded by s.mu.
	held lockKey
	// watch is the build's one watchdog timer and watching what it is
	// armed for, which its state decides. Guarded by s.mu.
	watch    simclock.Timer
	watching watchKind
}

// watchKind is what a build's watchdog is armed for.
type watchKind uint8

const (
	watchNone  watchKind = iota
	watchLease           // running: the attempt's lease (checkLease)
	watchRetry           // queued, sitting out a failover backoff (requeue)
	watchAging           // queued, in the queue: the pending timeout (checkAging)
)

// watchFor makes t, armed for kind, the build's watchdog, and stops the
// one it replaces: a build waits for one thing at a time, and for nothing
// (watchNone, nil) once running unleased or settled. Callers hold s.mu.
func (b *Build) watchFor(kind watchKind, t simclock.Timer) {
	if b.watch != nil {
		b.watch.Stop()
	}
	b.watch, b.watching = t, kind
}

// State reports the build state.
func (b *Build) State() BuildState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BuildState(b.BuildRec.State)
}

// live reports whether attempt is the build's current dispatch and still
// running — false once the scheduler reclaimed or settled it.
func (b *Build) live(attempt int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.BuildRec.State == StateRunning.String() && b.BuildRec.Attempts == attempt
}

// Attempts reports how many times the build has been dispatched (0
// while it has never left the queue).
func (b *Build) Attempts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.BuildRec.Attempts
}

// Retries reports how many failover requeues the build has consumed.
func (b *Build) Retries() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.BuildRec.Retries
}

// Recovered reports whether this build's state was reconstructed from
// the server's WAL+snapshot store after a restart.
func (b *Build) Recovered() bool { return b.recovered }

// FeedEpoch reports how many times the build's feed started over (once
// per server recovery).
func (b *Build) FeedEpoch() int { return b.BuildRec.FeedEpoch }

// NodeName reports the vantage point of the current (or last) attempt —
// after a fallback placement this differs from the spec's node.
func (b *Build) NodeName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Node
}

// RoutedVia reports the federation peer executing the current (or
// last) attempt, "" for a local placement. After a peer-loss failover
// onto a local node it resets to "".
func (b *Build) RoutedVia() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.routedVia
}

// PendingReason reports why a queued build is not running yet ("" when
// running, finished, or simply next in line).
func (b *Build) PendingReason() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pendingReason
}

// PlacementScore reports the placer's score for the build's
// current/last placement (0 for builds that never dispatched).
func (b *Build) PlacementScore() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.placementScore
}

// Err reports the failure cause for failed builds.
func (b *Build) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Log returns the console log so far.
func (b *Build) Log() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.String()
}

// Workspace returns the build's artifact store.
func (b *Build) Workspace() *Workspace { return b.workspace }

// Feed returns the build's event/sample stream.
func (b *Build) Feed() *feedhub.Feed { return b.feed }

// SetSummary hands over the run's wire-level digest, for a pipeline to
// call before it reports done; the v1 status endpoint serves it once the
// build has finished.
func (b *Build) SetSummary(s api.RunSummary) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reported = &s
}

// onCancelForAttempt registers the pipeline's cancel hook behind
// BuildContext.OnCancel. If an abort request arrived before the hook
// (the submit/abort race), the hook runs at once. A staleness gate
// guards it: a hook from a failed-over attempt (its pipeline finally
// came back after the scheduler reclaimed the build) must not displace
// the live attempt's hook — Abort would then cancel a dead session while
// the real run kept measuring. The stale hook is invoked instead of
// stored: it is the only handle to the orphaned session (failover found
// no hook to detach), and left alone that session would run its full
// workload on a device the retry may have re-locked.
func (b *Build) onCancelForAttempt(attempt int, fn func()) {
	b.mu.Lock()
	if b.BuildRec.Attempts != attempt || b.BuildRec.State != StateRunning.String() {
		b.mu.Unlock()
		if fn != nil {
			fn() // tear the orphaned attempt down
		}
		return
	}
	b.canceler = fn
	want := b.Canceled
	b.mu.Unlock()
	if want && fn != nil {
		fn()
	}
}

// QueueTime reports how long the build waited before dispatch (zero
// while still queued).
func (b *Build) QueueTime() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.StartedAtNS == 0 {
		return 0
	}
	return time.Duration(b.StartedAtNS - b.QueuedAtNS)
}

// Duration reports the run time of a finished build.
func (b *Build) Duration() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.FinishedAtNS == 0 || b.StartedAtNS == 0 {
		return 0
	}
	return time.Duration(b.FinishedAtNS - b.StartedAtNS)
}

// BuildContext is what a RunFunc sees. It is per-attempt: after a
// failover, the retried dispatch gets a fresh context, and the old
// one's staleness-gated methods (OnCancel, Stale) turn inert.
type BuildContext struct {
	// Build identifies the running build.
	Build *Build
	// Node is the target vantage point handle.
	Node Node
	// Device is the target device serial ("" if none).
	Device string
	// attempt is the dispatch token this context belongs to.
	attempt int
}

// Logf appends to the build console log.
func (ctx *BuildContext) Logf(format string, args ...any) {
	ctx.Build.mu.Lock()
	defer ctx.Build.mu.Unlock()
	fmt.Fprintf(&ctx.Build.log, format+"\n", args...)
}

// OnCancel registers this attempt's cancel hook; registrations from
// attempts the scheduler has already reclaimed are ignored.
func (ctx *BuildContext) OnCancel(fn func()) {
	ctx.Build.onCancelForAttempt(ctx.attempt, fn)
}

// Stale reports whether the scheduler has reclaimed this attempt (the
// build failed over, finished, or was aborted out from under it). A
// stale attempt's pipeline must not write artifacts or summaries: the
// live attempt owns the workspace.
func (ctx *BuildContext) Stale() bool { return !ctx.Build.live(ctx.attempt) }

// Workspace is a build's artifact store: named byte files kept for the
// retention window ("available for several days within the job's
// workspace", §3.1).
type Workspace struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{files: make(map[string][]byte)}
}

// Save stores an artifact. The workspace owns data from here on — the
// caller hands the slice over and must not write to it again — and keeps
// it without copying, its capacity cut to its length.
func (w *Workspace) Save(name string, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.files[name] = data[:len(data):len(data)]
}

// Load retrieves an artifact as a read-only view of the stored bytes, not
// a copy: an artifact is replaced or purged, never modified, so the view
// stays whole however long a reader holds it, and every Load of one Save
// is the same bytes. Callers must not write through it.
func (w *Workspace) Load(name string) ([]byte, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	data, ok := w.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: no artifact %q", ErrNotFound, name)
	}
	return data, nil
}

// List reports artifact names sorted.
func (w *Workspace) List() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.files))
	for n := range w.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// purge clears all artifacts (retention expiry).
func (w *Workspace) purge() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.files = make(map[string][]byte)
}
