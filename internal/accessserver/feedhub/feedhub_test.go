package feedhub

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// TestHubLifecycle: Create registers an open feed, Close closes it and
// keeps it registered, and Remove closes and unregisters it. The hub
// resolves nothing for readers; a holder of the feed waits on its change
// channel, which Close fires.
func TestHubLifecycle(t *testing.T) {
	h := New(nil)
	h.Close(1) // unknown ids are a no-op
	h.Remove(1)

	f := h.Create(1, 3)
	if f.Closed() || h.Len() != 1 {
		t.Fatalf("after create: closed %v, len %d", f.Closed(), h.Len())
	}

	// Close keeps the feed registered and replayable, and wakes a waiter.
	f.PostEvent(api.BuildEvent{Phase: "run"})
	_, _, changed := f.EventsSince(1)
	h.Close(1)
	<-changed
	evs, closed, _ := f.EventsSince(0)
	if len(evs) != 1 || !closed || h.Len() != 1 {
		t.Fatalf("replay after close: %d events, closed=%v, len %d", len(evs), closed, h.Len())
	}

	// Remove unregisters; a late producer's post is dropped and counted.
	g := h.Create(2, 0)
	_, _, changed = g.EventsSince(0)
	h.Remove(2)
	<-changed
	g.PostEvent(api.BuildEvent{Phase: "late"})
	if de, _ := g.Dropped(); !g.Closed() || de != 1 || h.Len() != 1 {
		t.Fatalf("after remove: closed %v, dropped %d, len %d", g.Closed(), de, h.Len())
	}
	h.Remove(1)
	if h.Len() != 0 {
		t.Fatalf("len after removing both = %d", h.Len())
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

// TestHubConcurrentChurn hammers create/close/remove from many
// goroutines, each feed drained by a reader that waits on nothing but its
// change channel and by one that follows it through Follow; run under
// -race it proves every hub and feed method is safe to call from any lock
// context, and a reader that missed a close would hang it.
func TestHubConcurrentChurn(t *testing.T) {
	h := New(&countStats{})
	const n = 32
	var wg sync.WaitGroup
	for id := 1; id <= n; id++ {
		created, followed := make(chan *Feed, 1), make(chan *Feed, 1)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f := h.Create(id, 0)
			created <- f
			followed <- f
			for i := 0; i < 50; i++ {
				f.PostEvent(api.BuildEvent{Phase: "run"})
			}
			h.Close(id)
			if id%2 == 0 {
				h.Remove(id)
			}
		}(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := <-created
			cursor := 0
			for {
				evs, closed, changed := f.EventsSince(cursor)
				cursor += len(evs)
				if closed {
					if more, _, _ := f.EventsSince(cursor); len(more) == 0 {
						break
					}
					continue
				}
				<-changed
			}
			if cursor != 50 {
				t.Errorf("reader drained %d events, want 50", cursor)
			}
		}()
		// One more reader follows the same feed through Follow: every
		// event once and in order, then nil after the close.
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := <-followed
			n := 0
			err := f.Follow(context.Background(), 0, 0, func(evs []api.BuildEvent, pts []api.SamplePoint) error {
				for _, e := range evs {
					if e.Seq != n {
						return fmt.Errorf("event %d has seq %d", n, e.Seq)
					}
					n++
				}
				if len(pts) > 0 {
					return fmt.Errorf("%d samples on a feed that posts none", len(pts))
				}
				return nil
			})
			if err != nil || n != 50 {
				t.Errorf("Follow drained %d events and returned %v, want 50 and nil", n, err)
			}
		}()
	}
	wg.Wait()
	if h.Len() != n/2 {
		t.Fatalf("%d feeds registered, want the %d closed and not removed", h.Len(), n/2)
	}
}

// TestFeedSampleViewsImmutableAndGapFree: SamplesSince and Follow hand
// out views of the feed's own buffer while PostSample keeps appending to
// it (and moving it, as it grows). Every reader holds on to every view it
// was given and, once the writer is done, checks that each still reads as
// the run of samples it covered — no gap or overlap at a cursor, no
// record changed behind a reader's back — and that appending to a view
// does not reach the feed. Run under -race this is also the proof that
// a view shares no writable memory with the producer.
func TestFeedSampleViewsImmutableAndGapFree(t *testing.T) {
	const total, readers = SampleCap, 4
	f := NewFeed(nil)
	type held struct {
		at   int
		view []api.SamplePoint
	}
	// hold keeps one view, given at cursor, and returns the next cursor.
	hold := func(views *[]held, cursor int, pts []api.SamplePoint) int {
		if cap(pts) != len(pts) {
			t.Errorf("view at %d: len %d, cap %d — an append would land in the feed", cursor, len(pts), cap(pts))
		}
		*views = append(*views, held{cursor, pts})
		return cursor + len(pts)
	}
	check := func(views []held, cursor int) {
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
	}
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var views []held
			cursor := 0
			for {
				pts, closed, changed := f.SamplesSince(cursor)
				if len(pts) > 0 {
					cursor = hold(&views, cursor, pts)
					continue
				}
				if closed {
					break
				}
				<-changed
			}
			check(views, cursor)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var views []held
		cursor := 0
		err := f.Follow(context.Background(), 0, 0, func(evs []api.BuildEvent, pts []api.SamplePoint) error {
			if len(pts) == 0 || len(evs) > 0 {
				return fmt.Errorf("batch of %d events and %d samples from a feed that posts samples only", len(evs), len(pts))
			}
			cursor = hold(&views, cursor, pts)
			return nil
		})
		if err != nil {
			t.Errorf("Follow: %v", err)
		}
		check(views, cursor)
	}()
	for i := range total {
		f.PostSample(api.SamplePoint{AtNS: int64(i), CurrentMA: float64(i)})
	}
	f.Close()
	wg.Wait()
	if pts, _, _ := f.SamplesSince(0); len(pts) != total || pts[total-1].AtNS != total-1 {
		t.Fatalf("feed holds %d samples after the readers' appends, want %d intact", len(pts), total)
	}
}

// TestFeedFollowEnds: Follow returns nil only once the feed has closed
// and fn has had every record from its cursors on, in order; ctx's error
// when ctx ends first, after handing over what was there; fn's error, at
// once, when fn fails. A cursor at math.MaxInt follows nothing of its
// stream.
func TestFeedFollowEnds(t *testing.T) {
	f := NewFeed(nil)
	for i := range 3 {
		f.PostEvent(api.BuildEvent{Phase: "run"})
		f.PostSample(api.SamplePoint{AtNS: int64(i)})
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var evs, pts int
	err := f.Follow(ctx, 1, 0, func(e []api.BuildEvent, p []api.SamplePoint) error {
		evs, pts = evs+len(e), pts+len(p)
		return nil
	})
	if !errors.Is(err, context.Canceled) || evs != 2 || pts != 3 {
		t.Fatalf("Follow under a cancelled ctx: %d events, %d samples, %v; want 2, 3 and context.Canceled", evs, pts, err)
	}

	boom := errors.New("boom")
	calls := 0
	if err := f.Follow(context.Background(), 0, 0, func([]api.BuildEvent, []api.SamplePoint) error {
		calls++
		return boom
	}); err != boom || calls != 1 {
		t.Fatalf("Follow with a failing fn: %d calls, %v; want 1 and fn's error", calls, err)
	}

	go func() {
		for range 2 {
			f.PostSample(api.SamplePoint{})
			f.PostEvent(api.BuildEvent{Phase: "teardown"})
		}
		f.Close()
	}()
	var seqs []int
	err = f.Follow(context.Background(), 0, math.MaxInt, func(e []api.BuildEvent, p []api.SamplePoint) error {
		if len(p) > 0 {
			return fmt.Errorf("%d samples past a cursor at math.MaxInt", len(p))
		}
		for _, ev := range e {
			seqs = append(seqs, ev.Seq)
		}
		return nil
	})
	if err != nil || len(seqs) != 5 {
		t.Fatalf("Follow to the close: events %v, %v; want 5 and nil", seqs, err)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("Follow handed events out of order: %v", seqs)
		}
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
