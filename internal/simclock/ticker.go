package simclock

import (
	"math"
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
// those of one clock event per tick.
//
// A sampler (NewSampler) goes one step further: its callback reads no
// clock and arms, stops or holds nothing, so nothing it does can change
// which ticks may run in place. The clock event of its first tick counts
// every following tick it may run in place in one check and hands the
// callback the whole run, first deadline and length; a 5 kHz Monsoon
// capture costs one callback, one clock check and one heap pop per
// foreign deadline instead of one of each per sample.
type Ticker struct {
	clock  Clock
	period time.Duration
	fn     func(first time.Time, n int)
	limit  int // most ticks one callback covers: 1, or unbounded for a sampler

	mu      sync.Mutex
	timer   Timer
	next    time.Time // nominal deadline of the armed tick
	stopped bool
}

// NewTicker starts a ticker that calls fn every period, with the first
// call one period from now. fn receives the tick's nominal deadline.
func NewTicker(clock Clock, period time.Duration, fn func(now time.Time)) *Ticker {
	return NewTickerAt(clock, clock.Now().Add(period), period, fn)
}

// NewTickerAt starts a ticker like NewTicker's whose first call is due at
// first, not before now: one that keeps the phase of a schedule begun
// earlier (first = start + k·period).
func NewTickerAt(clock Clock, first time.Time, period time.Duration, fn func(now time.Time)) *Ticker {
	return start(clock, first, period, 1, func(first time.Time, _ int) { fn(first) })
}

// NewSampler starts a ticker whose callback covers a run of ticks: fn
// receives the first tick's nominal deadline and the number of ticks n
// (at least one), due first, first+period, …, first+(n-1)·period. The
// first is due one period from now. fn must read no clock and arm, stop
// or hold nothing — it must not call Now, AfterFunc, Sleep, Hold or a
// Timer's methods, directly or through what it reads — and the clock
// may already stand at a run's last tick while fn handles its first. In
// return, on a Virtual clock one clock event covers every tick a Ticker
// would have run in place from it (see Ticker), in one call to fn.
// Ticks reach fn in order and each exactly once, with the same deadlines
// as a Ticker's; on the Real clock every run is one tick long.
func NewSampler(clock Clock, period time.Duration, fn func(first time.Time, n int)) *Ticker {
	return start(clock, clock.Now().Add(period), period, math.MaxInt, fn)
}

func start(clock Clock, first time.Time, period time.Duration, limit int, fn func(time.Time, int)) *Ticker {
	if period <= 0 {
		panic("simclock: non-positive ticker period")
	}
	t := &Ticker{clock: clock, period: period, fn: fn, limit: limit}
	// Held while arming: on the Real clock the first tick may run before
	// AfterFunc returns, and it must find t.timer set.
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = first
	t.timer = clock.AfterFunc(first.Sub(clock.Now()), t.fire)
	return t
}

// fire runs the tick whose clock event is firing and every tick it may
// run in place after it. A Ticker asks for its next tick after fn has
// run, since fn may arm a timer due before it; a sampler's fn cannot, so
// its run is counted before fn sees it.
func (t *Ticker) fire() {
	t.mu.Lock()
	deadline, stopped := t.next, t.stopped
	ev, _ := t.timer.(*event)
	n := 1
	if !stopped && ev != nil && t.limit > 1 {
		n += ev.owner.runInPlace(ev, deadline.Add(t.period), t.period, t.limit-1)
	}
	t.mu.Unlock()
	if stopped {
		return
	}
	for {
		t.fn(deadline, n)

		t.mu.Lock()
		if t.stopped { // from inside fn, or meanwhile
			t.mu.Unlock()
			return
		}
		deadline = deadline.Add(time.Duration(n) * t.period)
		t.next = deadline
		if ev != nil {
			n = ev.owner.runInPlace(ev, deadline, t.period, t.limit)
		}
		if ev == nil || n == 0 {
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
