package simclock

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refTicker is the Ticker as it was before ticks batched: one clock
// event per tick, re-armed by Reset after each. The batching Ticker must
// reproduce its event order exactly.
type refTicker struct {
	clock  Clock
	period time.Duration
	fn     func(now time.Time)

	mu      sync.Mutex
	timer   Timer
	next    time.Time
	stopped bool
}

func newRefTicker(clock Clock, period time.Duration, fn func(now time.Time)) stopper {
	t := &refTicker{clock: clock, period: period, fn: fn}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = clock.Now().Add(period)
	t.timer = clock.AfterFunc(period, t.fire)
	return t
}

func (t *refTicker) fire() {
	t.mu.Lock()
	deadline, stopped := t.next, t.stopped
	t.mu.Unlock()
	if stopped {
		return
	}
	t.fn(deadline)

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.next = deadline.Add(t.period)
	t.timer.Reset(t.next.Sub(t.clock.Now()))
}

func (t *refTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	t.timer.Stop()
}

type stopper interface{ Stop() }

func newBatchTicker(clock Clock, period time.Duration, fn func(now time.Time)) stopper {
	return NewTicker(clock, period, fn)
}

// script runs one seeded random scenario and returns its log of
// (label, nominal tick, Now()) in firing order. Callbacks draw from the
// seeded source in firing order, so two tickers with the same firing
// order make the same choices; the driver draws from its own source and
// mixes Step with RunUntil targets that fall between ticks. Nothing the
// driver does may change the log: it only decides how far each call
// goes, never what fires in which order.
func script(seed uint64, newTicker func(Clock, time.Duration, func(time.Time)) stopper) []string {
	const unit = 100 * time.Microsecond
	end := 300 * time.Millisecond
	v := NewVirtual()
	r := rand.New(rand.NewPCG(seed, 1))
	var (
		log     []string
		pending []Timer // foreign timers a callback may Stop or Reset
		tickers []stopper
		release func()
		id      int
	)
	at := func(label string, nominal time.Time) {
		log = append(log, fmt.Sprintf("%s %d %d", label, nominal.Sub(Epoch)/time.Microsecond, v.Now().Sub(Epoch)/time.Microsecond))
	}
	var foreign func(d time.Duration)
	foreign = func(d time.Duration) {
		id++
		label := fmt.Sprintf("A%d", id)
		due := v.Now().Add(max(d, 0))
		pending = append(pending, v.AfterFunc(d, func() {
			at(label, due)
			if r.IntN(4) == 0 {
				foreign(time.Duration(r.IntN(30)) * unit)
			}
		}))
	}
	var startTicker func(period time.Duration)
	startTicker = func(period time.Duration) {
		n := len(tickers)
		label := fmt.Sprintf("T%d/%d", n, period/unit)
		tickers = append(tickers, newTicker(v, period, func(now time.Time) {
			at(label, now)
			switch k := r.IntN(400); {
			case k < 12: // due before the next tick
				foreign(period / 2)
			case k < 24: // due exactly at the next tick
				foreign(period)
			case k < 28:
				foreign(0)
			case k < 36 && len(pending) > 0:
				pending[r.IntN(len(pending))].Reset(time.Duration(r.IntN(3)) * period / 2)
			case k < 42 && len(pending) > 0:
				pending[r.IntN(len(pending))].Stop()
			case k < 45 && release == nil:
				release = v.Hold()
			case k < 60 && release != nil:
				release()
				release = nil
			case k == 60: // stop some ticker, maybe this one, and start another
				tickers[r.IntN(len(tickers))].Stop()
				startTicker(time.Duration(2+r.IntN(12)) * unit)
			case k == 61: // sleep past the next tick or two
				v.Sleep(time.Duration(1+r.IntN(3)) * period)
			}
		}))
	}
	v.AfterFunc(end, func() { at("end", Epoch.Add(end)) }) // no batch crosses end
	periods := []time.Duration{2, 7, 11, 13}
	r.Shuffle(len(periods)-1, func(i, j int) { periods[i+1], periods[j+1] = periods[j+1], periods[i+1] })
	for _, p := range periods[:2+r.IntN(2)] {
		startTicker(p * unit)
	}

	// The driver never passes end, so both logs stop at the same event.
	stop := Epoch.Add(end)
	drv := rand.New(rand.NewPCG(seed, 2))
	for v.Now().Before(stop) {
		if drv.IntN(2) == 0 {
			to := v.Now().Add(time.Duration(1+drv.IntN(400)) * 7 * time.Microsecond)
			if to.After(stop) {
				to = stop
			}
			v.RunUntil(to)
			continue
		}
		for n := 1 + drv.IntN(20); n > 0 && v.Now().Before(stop); n-- {
			if !v.Step() { // held: fire the next deadline anyway, as core's driver does
				next, ok := v.NextDeadline()
				if !ok {
					break
				}
				v.RunUntil(next)
			}
		}
	}
	v.RunUntil(stop)
	for _, tk := range tickers {
		tk.Stop()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return append(log, fmt.Sprintf("seq %d", v.seq))
}

// TestTickerBatchMatchesPerEvent runs random scenarios — tickers with
// coprime periods, timers armed from ticks to fire before or exactly at
// the next tick, Stop and Reset from callbacks, holds taken and released
// mid-run, Step and RunUntil drivers — on the batching Ticker and on the
// one-event-per-tick reference, and requires the same log.
func TestTickerBatchMatchesPerEvent(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got, want := script(seed, newBatchTicker), script(seed, newRefTicker)
		if len(want) < 500 {
			t.Fatalf("seed %d: only %d log lines; the scenario is too thin", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: line %d = %q, per-event ticker logged %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d lines, per-event ticker logged %d", seed, len(got), len(want))
		}
	}
}

// TestTickerBatch pins what a batch buys and what it must not cost.
func TestTickerBatch(t *testing.T) {
	t.Run("runs the ticks before the next foreign deadline in one Step", func(t *testing.T) {
		v := NewVirtual()
		var ticks, slow int
		fast := NewTicker(v, time.Millisecond, func(time.Time) { ticks++ })
		defer fast.Stop()
		tk := NewTicker(v, 100*time.Millisecond, func(time.Time) { slow++ })
		defer tk.Stop()
		steps := 0
		for v.Now().Before(Epoch.Add(time.Second)) {
			v.Step()
			steps++
		}
		if ticks != 999 || slow != 10 { // the fast tick at 1 s follows the slow one armed before it
			t.Fatalf("%d fast and %d slow ticks, want 999 and 10", ticks, slow)
		}
		if steps > 21 {
			t.Fatalf("%d Steps for one simulated second, want at most 21", steps)
		}
	})

	t.Run("stops at the RunUntil target", func(t *testing.T) {
		v := NewVirtual()
		var last time.Time
		tk := NewTicker(v, time.Millisecond, func(now time.Time) { last = now })
		defer tk.Stop()
		v.AfterFunc(time.Hour, func() {})
		v.RunUntil(Epoch.Add(5500 * time.Microsecond))
		if want := Epoch.Add(5 * time.Millisecond); !last.Equal(want) {
			t.Fatalf("last tick at %v, want %v", last.Sub(Epoch), want.Sub(Epoch))
		}
		if got := v.Now().Sub(Epoch); got != 5500*time.Microsecond {
			t.Fatalf("clock at %v, want 5.5ms", got)
		}
		if next, _ := v.NextDeadline(); !next.Equal(Epoch.Add(6 * time.Millisecond)) {
			t.Fatalf("next deadline %v, want the tick at 6ms", next.Sub(Epoch))
		}
	})

	t.Run("a Hold taken by a tick ends the Step", func(t *testing.T) {
		v := NewVirtual()
		var release func()
		ticks := 0
		tk := NewTicker(v, time.Millisecond, func(time.Time) {
			if ticks++; ticks == 3 {
				release = v.Hold()
			}
		})
		defer tk.Stop()
		v.AfterFunc(time.Second, func() {})
		for v.Step() {
		}
		if ticks != 3 || !v.Now().Equal(Epoch.Add(3*time.Millisecond)) {
			t.Fatalf("held after %d ticks at %v, want 3 ticks at 3ms", ticks, v.Now().Sub(Epoch))
		}
		release()
		v.Step()
		if ticks != 999 {
			t.Fatalf("%d ticks after release, want 999 up to the 1s timer", ticks)
		}
	})

	t.Run("a batch allocates nothing", func(t *testing.T) {
		v := NewVirtual()
		ticks := 0
		fast := NewTicker(v, time.Millisecond, func(time.Time) { ticks++ })
		defer fast.Stop()
		slow := NewTicker(v, 100*time.Millisecond, func(time.Time) {})
		defer slow.Stop()
		v.Step() // the first batch: 99 ticks
		if n := testing.AllocsPerRun(100, func() { v.Step() }); n != 0 {
			t.Fatalf("%v allocations per Step", n)
		}
		if ticks < 100*50 {
			t.Fatalf("%d ticks: the Steps did not batch", ticks)
		}
	})
}

// TestTickerBatchRace arms timers from a second goroutine while a
// Step driver's batches run, and then drives with two goroutines at
// once: under -race the batch's reads of the heap and of the driver's
// target must be clean, and every tick still runs, in order.
func TestTickerBatchRace(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var ticks []time.Time
	tk := NewTicker(v, 100*time.Microsecond, func(now time.Time) {
		mu.Lock()
		ticks = append(ticks, now)
		mu.Unlock()
	})
	var foreign atomic.Int64
	bound := NewTicker(v, time.Millisecond, func(time.Time) {}) // the deadline batches run up to

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // arms timers while batches run
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			v.AfterFunc(time.Duration(i%50)*37*time.Microsecond, func() { foreign.Add(1) })
		}
	}()
	go func() { // a second driver on the same clock
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				v.RunUntil(v.Now().Add(250 * time.Microsecond))
			}
		}
	}()
	end := Epoch.Add(200 * time.Millisecond)
	for v.Now().Before(end) {
		v.Step()
	}
	close(done)
	wg.Wait()
	// With two drivers a tick can land late — the other driver moves the
	// clock between the ticker's Now() and its re-arm — so the ticker's
	// nominal deadlines may trail the clock; alone, a driver lets it catch
	// up. Then fire whatever the armer queued last.
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(ticks)
	}
	for count() < 2000 {
		v.Step()
	}
	tk.Stop()
	bound.Stop()
	v.RunAll()

	mu.Lock()
	defer mu.Unlock()
	for i, at := range ticks {
		if want := Epoch.Add(time.Duration(i+1) * 100 * time.Microsecond); !at.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, at.Sub(Epoch), want.Sub(Epoch))
		}
	}
	if n := foreign.Load(); n != 2000 {
		t.Fatalf("%d of 2000 foreign timers fired", n)
	}
}
