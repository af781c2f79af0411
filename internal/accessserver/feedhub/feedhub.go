// Package feedhub is the access server's feed plane: per-build event/
// sample streams and their lifecycle (create, close, evict). Which build
// ids exist, live or expired, is the read plane's to say: it publishes
// each build's feed beside its status, so a reader resolves both with
// one lock-free lookup.
//
// A feed has one reader, Feed.Follow, which the HTTP stream handlers and
// the in-process port both follow a build through. It returns nil only
// once the feed has closed and every record went out: only a closed feed
// ends a stream cleanly.
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
package feedhub

import (
	"context"
	"sync"

	"batterylab/internal/api"
)

// Feed buffer bounds. The feed is bounded and never blocks a producer:
// when a buffer fills, new records are dropped and counted rather than
// queued without limit, so a stalled HTTP consumer can never exert
// backpressure on the capture loop. At the default 1 s live-sample
// cadence the sample buffer holds over four hours of backlog.
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
// Producers (the measurement session) append without ever blocking;
// consumers (the NDJSON/binary streaming handlers, the in-process port)
// follow it through Follow. The feed closes when the build finishes.
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
// closed when the feed is): one look at the feed, for a reader that does
// not follow it. To follow a feed, use Follow.
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

// Follow is the feed's one reader: it replays both streams from their
// cursors (math.MaxInt follows nothing of one), then follows. Each turn
// takes both views, the closed flag and the change channel in one lock
// hold and hands fn any new records, read-only as EventsSince's. It
// returns nil once the feed has closed and fn has had every record, ctx's
// error if ctx ends first, and fn's error if fn fails.
func (f *Feed) Follow(ctx context.Context, events, samples int, fn func([]api.BuildEvent, []api.SamplePoint) error) error {
	for {
		f.mu.Lock()
		evs, pts := since(f.events, events), since(f.samples, samples)
		closed, changed := f.closed, f.waitLocked()
		f.mu.Unlock()
		if len(evs) > 0 || len(pts) > 0 {
			if err := fn(evs, pts); err != nil {
				return err
			}
			events += len(evs)
			samples += len(pts)
		}
		if closed {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Dropped reports how many events and samples the bounded buffers shed.
func (f *Feed) Dropped() (events, samples int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.droppedEvents, f.droppedSamples
}

// Hub is the feed lifecycle of one access server: the scheduler creates
// a build's feed when it issues the id, closes it when the build settles
// and removes it when retention evicts the build. It resolves nothing for
// readers: a read route finds a build's feed in the server's read plane,
// beside the build's published status.
//
// Lock rule: h.mu (and each feed's lock) is a leaf. Hub methods may be
// called while holding any scheduler lock; hub methods never call out.
type Hub struct {
	stats Stats

	mu    sync.Mutex
	feeds map[int]*Feed
}

// New returns an empty hub. st may be nil.
func New(st Stats) *Hub {
	return &Hub{stats: st, feeds: make(map[int]*Feed)}
}

// Create registers a fresh feed for build id. The epoch (how many times
// the build's feed started over, once per server recovery) is not kept:
// readers take it from the build's published status. Re-creating an id
// replaces its feed.
func (h *Hub) Create(id, epoch int) *Feed {
	f := NewFeed(h.stats)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.feeds[id] = f
	return f
}

// Close closes build id's feed, waking subscribers to drain and exit.
// The feed stays registered (replayable) until Remove. Unknown ids are
// a no-op. Safe under any scheduler lock.
func (h *Hub) Close(id int) {
	h.mu.Lock()
	f := h.feeds[id]
	h.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// Remove evicts build id's feed (retention expiry), closing it first so
// stragglers drain.
func (h *Hub) Remove(id int) {
	h.mu.Lock()
	f := h.feeds[id]
	delete(h.feeds, id)
	h.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// Len reports how many feeds are registered.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.feeds)
}
