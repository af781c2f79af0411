package feedhub

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batterylab/internal/api"
)

type countStats struct {
	eventsPosted, eventsDropped   atomic.Int64
	samplesPosted, samplesDropped atomic.Int64
}

func (c *countStats) EventPosted()   { c.eventsPosted.Add(1) }
func (c *countStats) EventDropped()  { c.eventsDropped.Add(1) }
func (c *countStats) SamplePosted()  { c.samplesPosted.Add(1) }
func (c *countStats) SampleDropped() { c.samplesDropped.Add(1) }

func TestHubLifecycle(t *testing.T) {
	h := New(nil)

	// Unknown id: tombstone feed, unknown status, epoch 0.
	if _, _, st := h.Resolve(1); st != StatusUnknown {
		t.Fatalf("resolve before create = %v, want unknown", st)
	}
	if f := h.Feed(1); f == nil || !f.Closed() {
		t.Fatal("unknown id must yield the closed tombstone, not nil")
	}

	f := h.Create(1, 3)
	if got, epoch, st := h.Resolve(1); st != StatusLive || got != f || epoch != 3 {
		t.Fatalf("resolve live = (%p, %d, %v), want (%p, 3, live)", got, epoch, st, f)
	}
	if h.Epoch(1) != 3 || h.Len() != 1 {
		t.Fatalf("epoch=%d len=%d", h.Epoch(1), h.Len())
	}

	// Close keeps the feed registered and replayable.
	f.PostEvent(api.BuildEvent{Phase: "run"})
	h.Close(1)
	if _, _, st := h.Resolve(1); st != StatusLive {
		t.Fatalf("resolve after close = %v, want live (replayable)", st)
	}
	evs, closed, _ := f.EventsSince(0)
	if len(evs) != 1 || !closed {
		t.Fatalf("replay after close: %d events, closed=%v", len(evs), closed)
	}

	// Remove evicts; the id now reads expired, not unknown, and the
	// tombstone absorbs late producers.
	h.Remove(1)
	if _, _, st := h.Resolve(1); st != StatusExpired {
		t.Fatalf("resolve after remove = %v, want expired", st)
	}
	h.Feed(1).PostEvent(api.BuildEvent{Phase: "late"}) // must not panic
	if h.Len() != 0 {
		t.Fatalf("len after remove = %d", h.Len())
	}

	// Ids above the high-water mark are still unknown.
	if _, _, st := h.Resolve(2); st != StatusUnknown {
		t.Fatalf("resolve high id = %v, want unknown", st)
	}
	h.SetHighWater(10)
	if _, _, st := h.Resolve(7); st != StatusExpired {
		t.Fatalf("resolve under raised high water = %v, want expired", st)
	}
}

func TestFeedCursorSemantics(t *testing.T) {
	st := &countStats{}
	f := NewFeed(st)
	for i := 0; i < 3; i++ {
		f.PostEvent(api.BuildEvent{Phase: "run"})
	}
	evs, closed, _ := f.EventsSince(1)
	if len(evs) != 2 || closed {
		t.Fatalf("EventsSince(1): %d events, closed=%v", len(evs), closed)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d", evs[0].Seq, evs[1].Seq)
	}
	// Negative cursors clamp, past-the-end cursors return nothing.
	if evs, _, _ := f.EventsSince(-5); len(evs) != 3 {
		t.Fatalf("EventsSince(-5): %d events", len(evs))
	}
	if evs, _, _ := f.EventsSince(99); len(evs) != 0 {
		t.Fatalf("EventsSince(99): %d events", len(evs))
	}

	// The changed channel fires on append and on close.
	_, _, changed := f.EventsSince(3)
	f.PostEvent(api.BuildEvent{Phase: "teardown"})
	select {
	case <-changed:
	case <-time.After(time.Second):
		t.Fatal("changed channel did not fire on append")
	}
	_, _, changed = f.EventsSince(4)
	f.Close()
	select {
	case <-changed:
	case <-time.After(time.Second):
		t.Fatal("changed channel did not fire on close")
	}
	if st.eventsPosted.Load() != 4 {
		t.Fatalf("stats posted = %d", st.eventsPosted.Load())
	}
}

func TestFeedDropAccounting(t *testing.T) {
	st := &countStats{}
	f := NewFeed(st)
	for i := 0; i < EventCap+5; i++ {
		f.PostEvent(api.BuildEvent{Phase: "run"})
	}
	de, _ := f.Dropped()
	if de != 5 || st.eventsDropped.Load() != 5 {
		t.Fatalf("dropped events = %d (stats %d), want 5", de, st.eventsDropped.Load())
	}
	evs, _, _ := f.EventsSince(0)
	if len(evs) != EventCap {
		t.Fatalf("buffered events = %d, want %d", len(evs), EventCap)
	}

	// A closed feed drops everything.
	f2 := NewFeed(st)
	f2.Close()
	f2.PostSample(api.SamplePoint{})
	if _, ds := f2.Dropped(); ds != 1 {
		t.Fatalf("dropped samples on closed feed = %d", ds)
	}
}

// TestHubConcurrentChurn hammers create/close/remove/resolve from many
// goroutines; run under -race it proves every hub and feed method is
// safe to call from any lock context.
func TestHubConcurrentChurn(t *testing.T) {
	h := New(&countStats{})
	const n = 32
	var wg sync.WaitGroup
	for id := 1; id <= n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f := h.Create(id, 0)
			for i := 0; i < 50; i++ {
				f.PostEvent(api.BuildEvent{Phase: "run"})
			}
			h.Close(id)
			if id%2 == 0 {
				h.Remove(id)
			}
		}(id)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cursor := 0
			for {
				f, _, st := h.Resolve(id)
				if st == StatusExpired {
					return
				}
				if st == StatusUnknown {
					continue // creator hasn't run yet
				}
				evs, closed, changed := f.EventsSince(cursor)
				cursor += len(evs)
				if closed {
					if more, _, _ := f.EventsSince(cursor); len(more) == 0 {
						return
					}
					continue
				}
				select {
				case <-changed:
				case <-time.After(10 * time.Millisecond):
				}
			}
		}(id)
	}
	wg.Wait()
	for id := 1; id <= n; id++ {
		want := StatusLive
		if id%2 == 0 {
			want = StatusExpired
		}
		if _, _, st := h.Resolve(id); st != want {
			t.Fatalf("id %d: status %v, want %v", id, st, want)
		}
	}
}

// TestFeedSampleViewsImmutableAndGapFree: SamplesSince hands out views of
// the feed's own buffer while PostSample keeps appending to it (and
// moving it, as it grows). Every reader holds on to every view it was
// given and, once the writer is done, checks that each still reads as
// the run of samples it covered — no gap or overlap at a cursor, no
// record changed behind a reader's back — and that appending to a view
// does not reach the feed. Run under -race this is also the proof that
// a view shares no writable memory with the producer.
func TestFeedSampleViewsImmutableAndGapFree(t *testing.T) {
	const total, readers = SampleCap, 4
	f := NewFeed(nil)
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type held struct {
				at   int
				view []api.SamplePoint
			}
			var views []held
			cursor := 0
			for {
				pts, closed, changed := f.SamplesSince(cursor)
				if len(pts) > 0 {
					if cap(pts) != len(pts) {
						t.Errorf("view at %d: len %d, cap %d — an append would land in the feed", cursor, len(pts), cap(pts))
					}
					views = append(views, held{cursor, pts})
					cursor += len(pts)
					continue
				}
				if closed {
					break
				}
				<-changed
			}
			if cursor != total {
				t.Errorf("reader saw %d samples, want %d", cursor, total)
			}
			for _, h := range views {
				for i, p := range h.view {
					if want := int64(h.at + i); p.AtNS != want || p.CurrentMA != float64(want) {
						t.Errorf("view at %d, sample %d: %+v, want AtNS %d", h.at, i, p, want)
						return
					}
				}
				_ = append(h.view, api.SamplePoint{AtNS: -1})
			}
		}()
	}
	for i := range total {
		f.PostSample(api.SamplePoint{AtNS: int64(i), CurrentMA: float64(i)})
	}
	f.Close()
	wg.Wait()
	if pts, _, _ := f.SamplesSince(0); len(pts) != total || pts[total-1].AtNS != total-1 {
		t.Fatalf("feed holds %d samples after the readers' appends, want %d intact", len(pts), total)
	}
}

// TestPostWithoutWaiterMakesNoChannel: a post nobody is waiting for
// allocates nothing once the buffer has capacity to spare; the wake
// channel exists from a reader's ask to the next post, and a closed feed's
// reader is handed one that is already closed.
func TestPostWithoutWaiterMakesNoChannel(t *testing.T) {
	f := NewFeed(nil)
	for i := 0; i < 600; i++ { // grow the buffer past what the runs below append
		f.PostSample(api.SamplePoint{AtNS: int64(i)})
	}
	if n := testing.AllocsPerRun(100, func() { f.PostSample(api.SamplePoint{CurrentMA: 100}) }); n != 0 {
		t.Errorf("PostSample with no waiter allocates %v times per post", n)
	}
	_, _, first := f.SamplesSince(0)
	if _, _, again := f.EventsSince(0); again != first {
		t.Error("two readers between posts wait on different channels")
	}
	f.PostSample(api.SamplePoint{})
	select {
	case <-first:
	default:
		t.Fatal("a post did not wake the reader")
	}
	f.Close()
	_, closed, ch := f.SamplesSince(0)
	select {
	case <-ch:
	default:
		t.Fatalf("closed=%v feed handed out a channel that blocks", closed)
	}
}
