package simclock

import (
	"sync"
	"time"
)

// Ticker invokes a callback at a fixed period on any Clock. It is the
// building block for periodic sampling (Monsoon ADC, CPU monitors, frame
// pacing). Unlike time.Ticker it never drops ticks on a Virtual clock:
// each tick reschedules exactly one period after the previous deadline.
//
// A ticker owns one Timer and one callback for its whole life and re-arms
// the timer in place after each tick (Timer.Reset), so a tick allocates
// nothing. On a Virtual clock the re-armed timer takes a fresh sequence
// number, which orders it among timers with an equal deadline exactly as
// if the tick had called AfterFunc.
//
// On a Virtual clock a tick does not need a clock event of its own: once
// a tick has run, the ticker runs the following ticks in place, in order,
// each with Now() at its nominal deadline, for as long as the next tick
// is the event the clock would pop next anyway — strictly before every
// other pending deadline, with no Hold active and within the running
// RunUntil's target — and re-arms its timer once, after the last. No
// other timer can fall between two ticks run this way, so the order of
// callbacks, the Now() each observes and the sequence numbers drawn are
// those of one clock event per tick; a 5 kHz Monsoon capture costs one
// heap pop per foreign deadline instead of one per sample.
type Ticker struct {
	clock  Clock
	period time.Duration
	fn     func(now time.Time)

	mu      sync.Mutex
	timer   Timer
	next    time.Time // nominal deadline of the armed tick
	stopped bool
}

// NewTicker starts a ticker that calls fn every period, with the first
// call one period from now. fn receives the tick's nominal deadline.
func NewTicker(clock Clock, period time.Duration, fn func(now time.Time)) *Ticker {
	if period <= 0 {
		panic("simclock: non-positive ticker period")
	}
	t := &Ticker{clock: clock, period: period, fn: fn}
	// Held while arming: on the Real clock the first tick may run before
	// AfterFunc returns, and it must find t.timer set.
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = clock.Now().Add(period)
	t.timer = clock.AfterFunc(period, t.fire)
	return t
}

func (t *Ticker) fire() {
	t.mu.Lock()
	deadline, stopped := t.next, t.stopped
	ev, _ := t.timer.(*event)
	t.mu.Unlock()
	if stopped {
		return
	}
	for {
		t.fn(deadline)

		t.mu.Lock()
		if t.stopped { // from inside fn, or meanwhile
			t.mu.Unlock()
			return
		}
		deadline = deadline.Add(t.period)
		t.next = deadline
		if ev == nil || !ev.owner.runInPlace(ev, deadline) {
			t.timer.Reset(deadline.Sub(t.clock.Now()))
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
}

// Stop cancels future ticks. It does not interrupt a tick in flight.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	t.timer.Stop()
}
