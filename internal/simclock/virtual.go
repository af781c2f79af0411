package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Virtual is a discrete-event simulated clock. Time only moves when
// Advance or Run is called; pending AfterFunc callbacks fire in timestamp
// order on the advancing goroutine, and each callback observes Now() equal
// to its own deadline — the discipline of a classic event-driven simulator.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu    sync.Mutex
	now   time.Time
	heap  timerHeap
	seq   uint64 // tiebreak so equal deadlines fire FIFO
	holds int    // suspended Step drivers (see Hold)
}

// Epoch is the default start time for virtual clocks: an arbitrary fixed
// instant so traces are reproducible byte-for-byte.
var Epoch = time.Date(2019, time.November, 13, 9, 0, 0, 0, time.UTC)

// NewVirtual returns a Virtual clock starting at Epoch.
func NewVirtual() *Virtual { return NewVirtualAt(Epoch) }

// NewVirtualAt returns a Virtual clock starting at the given instant.
func NewVirtualAt(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now reports the current simulated time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc schedules f at Now()+d. Non-positive d schedules it for the
// current instant; it still only runs during a subsequent Advance/Run.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	ev := &event{when: v.now.Add(d), seq: v.seq, fn: f, owner: v}
	v.seq++
	heap.Push(&v.heap, ev)
	return ev
}

// Sleep advances the clock by d from the calling goroutine's perspective.
// On a Virtual clock, Sleep is only meaningful from the driving goroutine;
// it is equivalent to Advance(d).
func (v *Virtual) Sleep(d time.Duration) { v.Advance(d) }

// Advance moves simulated time forward by d, firing every timer whose
// deadline falls within the window, in order.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative Advance")
	}
	v.RunUntil(v.Now().Add(d))
}

// RunUntil moves simulated time forward to t, firing due timers in order.
// If t is not after the current time, RunUntil is a no-op.
func (v *Virtual) RunUntil(t time.Time) {
	for {
		v.mu.Lock()
		if len(v.heap) == 0 || v.heap[0].when.After(t) {
			if t.After(v.now) {
				v.now = t
			}
			v.mu.Unlock()
			return
		}
		fn := v.popLocked(t)
		v.mu.Unlock()
		if fn != nil {
			fn()
		}
	}
}

// endOfTime bounds a Step's batch: only the next foreign deadline does.
var endOfTime = time.Unix(1<<62, 0)

// popLocked removes the earliest event, moves the clock to its deadline
// and returns the callback to run — nil for a stopped timer, which is
// discarded here. until is the driver's target, past which a Ticker
// firing in this pop may not batch (see runInPlace).
func (v *Virtual) popLocked(until time.Time) func() {
	ev := heap.Pop(&v.heap).(*event)
	if ev.when.After(v.now) {
		v.now = ev.when
	}
	if ev.done {
		return nil
	}
	ev.done, ev.until = true, until
	return ev.fn
}

// runInPlace reports whether the Ticker whose event ev is firing may run
// its next tick, due at next, inside this same clock event — true only
// when that tick is the event the heap would pop next anyway: strictly
// before the earliest pending deadline (on an equal one the pending
// timer was armed first and wins), no Hold active, at or before the
// driver's target and not already passed by a callback that advanced
// the clock itself. A clock with nothing else pending does not batch,
// so a lone ticker still fires one tick per Step. On true the clock
// moves to next and draws the sequence number the ticker's re-arm would
// have drawn, so event order, Now() and later sequence numbers are
// exactly those of one event per tick.
func (v *Virtual) runInPlace(ev *event, next time.Time) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.holds > 0 || len(v.heap) == 0 || next.Before(v.now) ||
		!next.Before(v.heap[0].when) || next.After(ev.until) {
		return false
	}
	v.now = next
	v.seq++
	return true
}

// Hold suspends Step drivers until the returned release runs. It lets
// a goroutine that is synchronously scheduling a batch of timers (an
// access server dispatching builds) keep a concurrent deadline-stepping
// driver from jumping the clock to an unrelated far-future deadline in
// the window before the batch's near-term timers exist. Holds nest;
// release is idempotent. Hold gates only Step — RunUntil/Advance
// callers own their timeline and are unaffected.
func (v *Virtual) Hold() (release func()) {
	v.mu.Lock()
	v.holds++
	v.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			v.mu.Lock()
			v.holds--
			v.mu.Unlock()
		})
	}
}

// Step fires the earliest pending timer, advancing the clock to its
// deadline — one discrete-event iteration. When that timer is a
// Ticker's, the iteration also runs every following tick due strictly
// before the next other pending deadline (see Ticker), so one Step may
// advance the clock by many periods; a ticker alone on the clock still
// fires one tick per Step. It reports false (firing nothing) when the
// clock is held or no timers are pending. Step is the building block
// for drivers that serve real-time consumers from a virtual timeline
// (batterylab.DriveBuilds).
func (v *Virtual) Step() bool {
	v.mu.Lock()
	if v.holds > 0 || len(v.heap) == 0 {
		v.mu.Unlock()
		return false
	}
	fn := v.popLocked(endOfTime)
	v.mu.Unlock()
	if fn != nil {
		fn()
	}
	return true
}

// NextDeadline reports the earliest pending timer's deadline. A second
// return of false means no timers are queued. Stopped timers still count
// until their deadline passes (they sit in the queue as no-ops), so a
// driver advancing deadline-by-deadline may fire nothing on some steps.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.heap) == 0 {
		return time.Time{}, false
	}
	return v.heap[0].when, true
}

// RunAll fires every pending timer, advancing time to each deadline. It
// stops when the queue is empty. Callbacks that schedule new timers keep
// the run going, so a self-rescheduling ticker would never terminate;
// prefer RunUntil for periodic work.
func (v *Virtual) RunAll() {
	for {
		v.mu.Lock()
		if len(v.heap) == 0 {
			v.mu.Unlock()
			return
		}
		deadline := v.heap[0].when
		v.mu.Unlock()
		v.RunUntil(deadline)
	}
}

// PendingTimers reports how many timers are queued.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.heap)
}

type event struct {
	when  time.Time
	seq   uint64
	fn    func()
	index int  // position in the heap, -1 once popped
	done  bool // fired or stopped: fn will not run unless Reset re-arms it
	owner *Virtual
	until time.Time // target of the driver that last popped it
}

// Stop implements Timer. It is safe to call after firing. A stopped event
// stays in the heap as a no-op; it is discarded when its deadline is
// reached.
func (e *event) Stop() bool {
	e.owner.mu.Lock()
	defer e.owner.mu.Unlock()
	if e.done {
		return false
	}
	e.done = true
	return true
}

// Reset implements Timer by re-queueing this same event. The seq is drawn
// now, not kept from the first arming, so among equal deadlines the event
// sorts where an AfterFunc called at this moment would: that is what
// keeps a self-re-arming Ticker interleaved with other timers exactly as
// when it scheduled a new event per tick.
func (e *event) Reset(d time.Duration) bool {
	v := e.owner
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	pending := !e.done
	e.when, e.seq, e.done = v.now.Add(d), v.seq, false
	v.seq++
	if e.index >= 0 { // pending, or stopped and not yet discarded
		heap.Fix(&v.heap, e.index)
	} else {
		heap.Push(&v.heap, e)
	}
	return pending
}

type timerHeap []*event

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
