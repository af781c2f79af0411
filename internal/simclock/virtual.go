package simclock

import (
	"container/heap"
	"errors"
	"fmt"
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
	seq   uint64        // tiebreak so equal deadlines fire FIFO
	holds int           // suspended Step drivers (see Hold)
	wake  chan struct{} // closed to wake parked DriveWhile drivers; nil when none waits
	turn  sync.Mutex    // held by a RunWhile driver for one instant
}

// RunWhile's errors: no timer is pending, or the next is due past the
// caller's limit.
var (
	ErrStalled   = errors.New("simclock: stalled: no pending timers")
	ErrPastLimit = errors.New("simclock: next event past the limit")
)

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
	v.wakeLocked()
	return ev
}

// wakeLocked wakes every parked DriveWhile: a timer or an unheld clock
// may now exist. With none parked it costs one branch.
func (v *Virtual) wakeLocked() {
	if v.wake != nil {
		close(v.wake)
		v.wake = nil
	}
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
		ev := v.popLocked(t)
		v.mu.Unlock()
		if ev != nil {
			ev.fn()
		}
	}
}

// endOfTime bounds a Step's batch: only the next foreign deadline does.
var endOfTime = time.Unix(1<<62, 0)

// popLocked removes the earliest event, moves the clock to its deadline
// and returns it to be fired — nil for a stopped timer, which is
// discarded here. until is the driver's target, past which a Ticker
// firing in this pop may not batch (see runInPlace).
func (v *Virtual) popLocked(until time.Time) *event {
	ev := heap.Pop(&v.heap).(*event)
	if ev.when.After(v.now) {
		v.now = ev.when
	}
	if ev.done {
		return nil
	}
	ev.done, ev.until, ev.ran = true, until, ev.when
	return ev
}

// runInPlace reports how many of the ticks due at next, next+period, …
// — at most limit — the Ticker whose event ev is firing may run inside
// this same clock event. A tick qualifies only when it is the event the
// heap would pop next anyway: strictly before the earliest pending
// deadline (on an equal one the pending timer was armed first and wins),
// no Hold active, at or before the driver's target and not already
// passed by a callback or a second driver that advanced the clock
// itself. A clock with nothing else pending does not batch, so a lone
// ticker still fires one tick per Step. The n ticks that qualify are
// counted in one section: the clock moves to the last and draws the n
// sequence numbers the ticker's re-arms would have drawn, so event
// order, Now() at each tick and later sequence numbers are exactly those
// of one event per tick; ev records the last as the tick it ran last,
// which is where a RunWhile instant ends. A Ticker asks for one tick at
// a time (limit 1), a sampler for its whole run.
func (v *Virtual) runInPlace(ev *event, next time.Time, period time.Duration, limit int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.holds > 0 || len(v.heap) == 0 || next.Before(v.now) {
		return 0
	}
	// Tick i is due at next + i·period: it must be strictly before the
	// earliest pending deadline and not after the target. Both gaps are
	// exact in nanoseconds, but for a target over 292 years off (such as
	// endOfTime), where Sub saturates; the pending deadline, armed at
	// most that far from a past Now, bounds the run then.
	n := limit
	if gap := v.heap[0].when.Sub(next); gap <= 0 {
		return 0
	} else if k := (gap-1)/period + 1; k < time.Duration(n) {
		n = int(k)
	}
	if gap := ev.until.Sub(next); gap < 0 {
		return 0
	} else if k := gap / period; k < time.Duration(n) {
		n = int(k) + 1
	}
	last := next.Add(time.Duration(n-1) * period)
	v.now, ev.ran = last, last
	v.seq += uint64(n)
	return n
}

// Hold suspends Step drivers until the returned release runs. It lets
// a goroutine that is synchronously scheduling a batch of timers (an
// access server dispatching builds) keep a concurrent DriveWhile from
// jumping the clock to an unrelated far-future deadline in the window
// before the batch's near-term timers exist; the last release wakes it.
// Holds nest; release is idempotent. Hold gates only Step and Ticker
// batching — RunUntil, Advance and RunWhile callers own their timeline.
func (v *Virtual) Hold() (release func()) {
	v.mu.Lock()
	v.holds++
	v.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			v.mu.Lock()
			if v.holds--; v.holds == 0 {
				v.wakeLocked()
			}
			v.mu.Unlock()
		})
	}
}

// RunWhile drives the clock for a caller that owns its timeline. While
// busy reports true it fires one instant per turn: every timer due at
// the earliest pending deadline, including those the callbacks arm for
// it. A Ticker whose tick ends an instant still runs its following
// ticks in place (see Ticker), and the instant ends where they do; a
// Hold stops only that batching. busy is asked between instants only.
// RunWhile returns nil once busy reports false, ErrStalled when nothing
// is pending, and ErrPastLimit when the next deadline lies past limit()
// (read every turn, so a budget may move; nil sets none). Concurrent
// callers on one clock take turns instant by instant, so the events
// fire in the order one driver would fire them; a callback that called
// RunWhile would wait for its own turn forever.
func (v *Virtual) RunWhile(busy func() bool, limit func() time.Time) error {
	for {
		if done, err := v.runInstant(busy, limit); done {
			return err
		}
	}
}

// runInstant is one RunWhile turn; it reports whether the drive is over.
// busy and limit run outside v.mu: they may take the caller's locks,
// under which the caller arms timers.
func (v *Virtual) runInstant(busy func() bool, limit func() time.Time) (bool, error) {
	v.turn.Lock()
	defer v.turn.Unlock()
	if !busy() {
		return true, nil
	}
	at, ok := v.NextDeadline()
	if !ok {
		return true, ErrStalled
	}
	if limit != nil {
		if lim := limit(); at.After(lim) {
			return true, fmt.Errorf("%w: next event at %v, limit %v", ErrPastLimit, at, lim)
		}
	}
	v.mu.Lock()
	for len(v.heap) > 0 && !v.heap[0].when.After(at) {
		if ev := v.popLocked(endOfTime); ev != nil {
			v.mu.Unlock()
			ev.fn()
			v.mu.Lock()
			if ev.ran.After(at) { // a Ticker's batch carries the instant on
				at = ev.ran
			}
		}
	}
	v.mu.Unlock()
	return false, nil
}

// DriveWhile drives the clock for a caller that shares it with
// real-time goroutines, until stop closes: it Steps while busy reports
// true and the clock is not held, and otherwise parks until a timer is
// armed or the last Hold released, from any goroutine. It never polls:
// an access server holds the clock around every submit, dispatch and
// recovery, so what makes its builds runnable also wakes the driver.
func (v *Virtual) DriveWhile(busy func() bool, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if busy() && v.Step() {
			continue
		}
		v.mu.Lock()
		if v.wake == nil {
			v.wake = make(chan struct{})
		}
		wake := v.wake
		v.mu.Unlock()
		// Look again now that a wake would reach us: a timer armed or a
		// hold released since the look above must not be slept through.
		if !busy() || !v.Step() {
			select {
			case <-wake:
			case <-stop:
				return
			}
		}
	}
}

// Step fires the earliest pending timer, advancing the clock to its
// deadline — one discrete-event iteration. When that timer is a
// Ticker's, the iteration also runs every following tick due strictly
// before the next other pending deadline (see Ticker), so one Step may
// advance the clock by many periods; a ticker alone on the clock still
// fires one tick per Step. It reports false (firing nothing) when the
// clock is held or no timers are pending. Step is the building block
// of DriveWhile, the driver that serves real-time consumers from a
// virtual timeline.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	if v.holds > 0 || len(v.heap) == 0 {
		v.mu.Unlock()
		return false
	}
	ev := v.popLocked(endOfTime)
	v.mu.Unlock()
	if ev != nil {
		ev.fn()
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

type event struct {
	when  time.Time
	seq   uint64
	fn    func()
	index int  // position in the heap, -1 once popped
	done  bool // fired or stopped: fn will not run unless Reset re-arms it
	owner *Virtual
	until time.Time // target of the driver that last popped it
	ran   time.Time // deadline of the tick that pop ran last (see runInPlace)
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
	v.wakeLocked()
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
