// Package feedhub is the access server's feed plane: per-build event/
// sample streams and the registry that resolves streaming subscriptions
// without touching scheduler state.
//
// The hub exists to split the server into two lock domains. The
// scheduler lock (s.mu) orders dispatch, failover and settlement; the
// hub's lock orders only feed lifecycle (create/close/evict) and is a
// strict leaf: the hub never calls back into the scheduler and never
// acquires any other lock, so every hub method — including Close — is
// legal to call while holding scheduler or per-build locks. That kills
// the old "close the feed after releasing s.mu" contract the scheduler
// used to carry (and occasionally violate) when feeds hung off the
// build struct.
//
// Streaming HTTP handlers resolve a build id to its feed through
// Resolve alone, so thousands of dashboard subscribers never contend
// with dispatch.
package feedhub

import (
	"sync"

	"batterylab/internal/api"
)

// Feed buffer bounds. Like the capture pipeline's observer queue, the
// feed is bounded and never blocks a producer: when a buffer fills,
// new records are dropped and counted rather than queued without
// limit, so a stalled HTTP consumer can never exert backpressure on
// the capture loop. At the default 1 s live-sample cadence the sample
// buffer holds over four hours of backlog.
const (
	EventCap  = 4096
	SampleCap = 16384
)

// Stats receives posted/dropped ticks from every feed in a hub, so the
// embedding server can aggregate them into its metrics registry. All
// methods must be safe for concurrent use; implementations must not
// acquire locks that can be held while posting to a feed.
type Stats interface {
	EventPosted()
	EventDropped()
	SamplePosted()
	SampleDropped()
}

// Feed is a build's streaming log: the phase events and live power
// samples its run emitted, buffered for replay-plus-follow consumers.
// Producers (the measurement session's observer) append without ever
// blocking; consumers (the NDJSON/binary streaming handlers) read
// snapshots by cursor and wait on a change channel for more. The feed
// closes when the build finishes.
type Feed struct {
	mu      sync.Mutex
	changed chan struct{} // nil until a reader asks to wait, nil again once it fires
	events  []api.BuildEvent
	samples []api.SamplePoint
	closed  bool

	droppedEvents  int64
	droppedSamples int64

	// stats aggregates posted/dropped totals across all feeds for the
	// metrics registry. Nil in feeds built outside a hub.
	stats Stats
}

// NewFeed returns an open, unregistered feed. st may be nil. Most
// callers want Hub.Create instead; this exists for tests and for
// embedders that manage their own registry.
func NewFeed(st Stats) *Feed {
	return &Feed{stats: st}
}

// notifyLocked wakes every waiting consumer. A post nobody waits for
// finds no channel and makes none. Callers hold f.mu.
func (f *Feed) notifyLocked() {
	if f.changed != nil {
		close(f.changed)
		f.changed = nil
	}
}

// closedChan is what a closed feed's reader gets to wait on: nothing more
// will happen, so there is nothing to wait for.
var closedChan = make(chan struct{})

func init() { close(closedChan) }

// waitLocked returns the channel the next change closes, making it for the
// first reader since the last change. Callers hold f.mu.
func (f *Feed) waitLocked() <-chan struct{} {
	if f.closed {
		return closedChan
	}
	if f.changed == nil {
		f.changed = make(chan struct{})
	}
	return f.changed
}

// PostEvent appends a phase event, assigning its sequence number. Full
// buffer or closed feed: the event is dropped and counted. Never
// blocks.
func (f *Feed) PostEvent(e api.BuildEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || len(f.events) >= EventCap {
		f.droppedEvents++
		if f.stats != nil {
			f.stats.EventDropped()
		}
		return
	}
	e.Seq = len(f.events)
	f.events = append(f.events, e)
	if f.stats != nil {
		f.stats.EventPosted()
	}
	f.notifyLocked()
}

// PostSample appends a live sample under the same non-blocking,
// drop-when-full contract as PostEvent.
func (f *Feed) PostSample(p api.SamplePoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || len(f.samples) >= SampleCap {
		f.droppedSamples++
		if f.stats != nil {
			f.stats.SampleDropped()
		}
		return
	}
	f.samples = append(f.samples, p)
	if f.stats != nil {
		f.stats.SamplePosted()
	}
	f.notifyLocked()
}

// Close marks the feed complete and wakes consumers so they can drain
// and exit. Idempotent, and — the hub's whole point — legal under any
// caller-held lock: the feed lock is a leaf.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.notifyLocked()
}

// Closed reports whether the feed has closed.
func (f *Feed) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// EventsSince returns the events at cursor n and beyond, whether the
// feed has closed, and a channel that signals the next change (already
// closed when the feed is). A consumer loops: drain the snapshot, exit
// when closed and caught up, otherwise wait on the channel (or its own
// context).
//
// The snapshot is a read-only view of the feed's own buffer, not a
// copy: the buffer is append-only, so the records a view covers never
// change, and the view's capacity is cut to its length, so an append by
// the caller cannot reach the producer's next slot. Callers must not
// write through it.
func (f *Feed) EventsSince(n int) (evs []api.BuildEvent, closed bool, changed <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return since(f.events, n), f.closed, f.waitLocked()
}

// SamplesSince is EventsSince for the sample stream, under the same
// read-only contract.
func (f *Feed) SamplesSince(n int) (pts []api.SamplePoint, closed bool, changed <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return since(f.samples, n), f.closed, f.waitLocked()
}

// since is the capped view of an append-only buffer from cursor n on,
// nil when there is nothing there.
func since[T any](buf []T, n int) []T {
	n = max(n, 0)
	if n >= len(buf) {
		return nil
	}
	return buf[n:len(buf):len(buf)]
}

// Dropped reports how many events and samples the bounded buffers shed.
func (f *Feed) Dropped() (events, samples int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.droppedEvents, f.droppedSamples
}

// Status classifies a build id for the streaming routes.
type Status int

const (
	// StatusUnknown: the id was never issued (404).
	StatusUnknown Status = iota
	// StatusLive: a feed is registered — open, or closed and still
	// replayable until retention evicts it.
	StatusLive
	// StatusExpired: the id was issued but retention evicted its feed;
	// only a tombstone remains.
	StatusExpired
)

// Hub is the epoch-aware feed registry. One hub serves one access
// server; the scheduler drives lifecycle through Create/Close/Remove
// and the streaming handlers resolve subscriptions through Resolve.
//
// Lock rule: h.mu (and each feed's lock) is a leaf. Hub methods may be
// called while holding any scheduler lock; hub methods never call out.
type Hub struct {
	stats Stats

	mu    sync.Mutex
	feeds map[int]*entry
	// high is the highest build id ever registered (or declared via
	// SetHighWater after recovery): ids at or below it that are no
	// longer registered have expired rather than never existed.
	high int

	// tomb is a permanently closed feed returned for evicted ids, so a
	// late producer posts into a drop-everything sink instead of nil.
	tomb *Feed
}

type entry struct {
	feed  *Feed
	epoch int
}

// New returns an empty hub. st may be nil.
func New(st Stats) *Hub {
	tomb := NewFeed(nil)
	tomb.Close()
	return &Hub{stats: st, feeds: make(map[int]*entry), tomb: tomb}
}

// Create registers a fresh feed for build id at the given epoch
// (epochs count feed restarts across server recoveries; streaming
// clients use them to invalidate stale resume cursors). Re-creating an
// id replaces its entry.
func (h *Hub) Create(id, epoch int) *Feed {
	f := NewFeed(h.stats)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.feeds[id] = &entry{feed: f, epoch: epoch}
	if id > h.high {
		h.high = id
	}
	return f
}

// Close closes build id's feed, waking subscribers to drain and exit.
// The feed stays registered (replayable) until Remove. Unknown ids are
// a no-op. Safe under any scheduler lock.
func (h *Hub) Close(id int) {
	h.mu.Lock()
	e := h.feeds[id]
	h.mu.Unlock()
	if e != nil {
		e.feed.Close()
	}
}

// Remove evicts build id's feed (retention expiry). The feed is closed
// first so stragglers drain; subsequent Resolve calls report expiry.
func (h *Hub) Remove(id int) {
	h.mu.Lock()
	e := h.feeds[id]
	delete(h.feeds, id)
	h.mu.Unlock()
	if e != nil {
		e.feed.Close()
	}
}

// Feed returns build id's feed, or a permanently closed sink when the
// id is unknown or evicted — producers can always post without a nil
// check, and posts to evicted builds are counted as drops by the sink
// (locally, not in Stats).
func (h *Hub) Feed(id int) *Feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.feeds[id]; ok {
		return e.feed
	}
	return h.tomb
}

// Epoch reports build id's feed epoch (0 when unknown).
func (h *Hub) Epoch(id int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.feeds[id]; ok {
		return e.epoch
	}
	return 0
}

// Resolve maps a build id to its feed for a streaming subscription:
// the feed and epoch when live, or a status explaining its absence.
// This is the data plane's only lookup — it never touches scheduler
// state.
func (h *Hub) Resolve(id int) (f *Feed, epoch int, st Status) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.feeds[id]; ok {
		return e.feed, e.epoch, StatusLive
	}
	if id >= 1 && id <= h.high {
		return nil, 0, StatusExpired
	}
	return nil, 0, StatusUnknown
}

// SetHighWater raises the id high-water mark. Recovery calls it with
// the highest id ever issued so ids whose records expired before the
// restart (no feed to re-create) still resolve as expired, not
// unknown.
func (h *Hub) SetHighWater(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id > h.high {
		h.high = id
	}
}

// Len reports how many feeds are registered.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.feeds)
}
