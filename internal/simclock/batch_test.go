package simclock

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
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

// newBatchSampler is a sampler that hands every tick of a run to fn in
// turn; fn must keep the sampler's contract.
func newBatchSampler(clock Clock, period time.Duration, fn func(now time.Time)) stopper {
	return NewSampler(clock, period, func(first time.Time, n int) {
		for i := range n {
			fn(first.Add(time.Duration(i) * period))
		}
	})
}

// tickers builds a scenario's periodic timers: the ticker under test, or
// the one-event-per-tick reference, and a sampler, or again the
// reference; a nil sampler leaves it out.
type tickers struct {
	ticker, sampler func(Clock, time.Duration, func(time.Time)) stopper
}

var (
	batching = tickers{newBatchTicker, newBatchSampler}
	perEvent = tickers{newRefTicker, newRefTicker}
)

// scenario is one seeded random scenario armed on a fresh clock:
// tickers with coprime periods whose callbacks draw from the seeded
// source in firing order — arming timers due before or exactly at the
// next tick, Stop and Reset, holds taken and released, a Sleep — and an
// end timer no ticker batch crosses. Two drivers that fire the same
// events in the same order make the same choices and log the same
// (label, nominal tick, Now()) lines. A sampler beside them, its period
// one or three units, logs (label, nominal tick) and nothing else: it
// reads no clock, so its runs end on every kind of deadline the tickers
// arm, often exactly on one of its ticks.
type scenario struct {
	v       *Virtual
	log     []string
	tickers []stopper
	end     time.Time
	ended   bool // the end timer has fired
}

func newScenario(seed uint64, kind tickers) *scenario {
	const unit = 100 * time.Microsecond
	end := 300 * time.Millisecond
	v := NewVirtual()
	s := &scenario{v: v, end: Epoch.Add(end)}
	r := rand.New(rand.NewPCG(seed, 1))
	var (
		pending []Timer // foreign timers a callback may Stop or Reset
		release func()
		id      int
	)
	at := func(label string, nominal time.Time) {
		s.log = append(s.log, fmt.Sprintf("%s %d %d", label, nominal.Sub(Epoch)/time.Microsecond, v.Now().Sub(Epoch)/time.Microsecond))
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
		n := len(s.tickers)
		label := fmt.Sprintf("T%d/%d", n, period/unit)
		s.tickers = append(s.tickers, kind.ticker(v, period, func(now time.Time) {
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
				s.tickers[r.IntN(len(s.tickers))].Stop()
				startTicker(time.Duration(2+r.IntN(12)) * unit)
			case k == 61: // sleep past the next tick or two
				v.Sleep(time.Duration(1+r.IntN(3)) * period)
			}
		}))
	}
	// No batch crosses end, nor runs on from a tick due at end.
	v.AfterFunc(end, func() { at("end", s.end); s.ended = true })
	v.AfterFunc(end+time.Microsecond, func() {})
	periods := []time.Duration{2, 7, 11, 13}
	r.Shuffle(len(periods)-1, func(i, j int) { periods[i+1], periods[j+1] = periods[j+1], periods[i+1] })
	for _, p := range periods[:2+r.IntN(2)] {
		startTicker(p * unit)
	}
	if kind.sampler == nil {
		return s
	}
	sp := time.Duration(1+2*r.IntN(2)) * unit
	label := fmt.Sprintf("S/%d", sp/unit)
	s.tickers = append(s.tickers, kind.sampler(v, sp, func(nominal time.Time) {
		s.log = append(s.log, fmt.Sprintf("%s %d", label, nominal.Sub(Epoch)/time.Microsecond))
	}))
	return s
}

// finish stops the tickers and returns the log, closed by the clock's
// next sequence number.
func (s *scenario) finish() []string {
	for _, tk := range s.tickers {
		tk.Stop()
	}
	s.v.mu.Lock()
	defer s.v.mu.Unlock()
	return append(s.log, fmt.Sprintf("seq %d", s.v.seq))
}

// script runs one seeded scenario and returns its log. The driver draws
// from its own source and mixes Step with RunUntil targets that fall
// between ticks. Nothing the driver does may change the log: it only
// decides how far each call goes, never what fires in which order.
func script(seed uint64, kind tickers) []string {
	s := newScenario(seed, kind)
	v := s.v
	// The driver never passes end, so both logs stop at the same event.
	stop := s.end
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
			if !v.Step() { // held: fire the next deadline anyway
				next, ok := v.NextDeadline()
				if !ok {
					break
				}
				v.RunUntil(next)
			}
		}
	}
	v.RunUntil(stop)
	return s.finish()
}

// sameLog fails t at the first line where got departs from want.
func sameLog(t *testing.T, seed uint64, got, want []string, ref string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("seed %d: line %d = %q, %s logged %q", seed, i, got[i], ref, want[i])
		}
	}
	t.Fatalf("seed %d: %d lines, %s logged %d", seed, len(got), ref, len(want))
}

// TestTickerBatchMatchesPerEvent runs random scenarios — tickers with
// coprime periods and a sampler, timers armed from ticks to fire before
// or exactly at the next tick, Stop and Reset from callbacks, holds
// taken and released mid-run, Step and RunUntil drivers — on the
// batching Ticker and sampler and on the one-event-per-tick reference,
// and requires the same log.
func TestTickerBatchMatchesPerEvent(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got, want := script(seed, batching), script(seed, perEvent)
		if len(want) < 500 {
			t.Fatalf("seed %d: only %d log lines; the scenario is too thin", seed, len(want))
		}
		sameLog(t, seed, got, want, "the per-event ticker")
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

// TestSamplerRunLength pins where a sampler's run ends, one rule per
// row: the clock event of the tick due at 1p counts the ticks from 2p
// on that may run in place. Each row also counts them one tick at a
// time, the way a Ticker asks, on a second clock set up alike: both
// must agree on the count, the clock's time, the sequence numbers drawn
// and the tick the event ran last.
func TestSamplerRunLength(t *testing.T) {
	const p = 100 * time.Microsecond
	at := func(k int) time.Time { return Epoch.Add(time.Duration(k) * p) }
	for _, tc := range []struct {
		name    string
		foreign []time.Duration // other pending deadlines, from Epoch
		until   time.Time       // the driver's target
		hold    bool
		now     time.Time // set after the pop when not zero: a second driver moved on
		want    int
	}{
		{name: "a foreign deadline exactly on a tick excludes it", foreign: []time.Duration{10 * p}, until: endOfTime, want: 8},
		{name: "a foreign deadline between ticks", foreign: []time.Duration{10*p + p/2}, until: endOfTime, want: 9},
		{name: "a RunUntil target exactly on a tick includes it", foreign: []time.Duration{time.Second}, until: at(6), want: 5},
		{name: "a RunUntil target between ticks", foreign: []time.Duration{time.Second}, until: at(6).Add(p / 2), want: 5},
		{name: "a RunUntil target on the popped tick", foreign: []time.Duration{time.Second}, until: at(1), want: 0},
		{name: "an endOfTime target runs to the foreign deadline", foreign: []time.Duration{time.Minute}, until: endOfTime, want: int(time.Minute/p) - 2},
		{name: "an active Hold", foreign: []time.Duration{time.Second}, until: endOfTime, hold: true, want: 0},
		{name: "a second driver already past the next tick", foreign: []time.Duration{time.Second}, until: endOfTime, now: at(2).Add(p / 2), want: 0},
		{name: "a second driver exactly on the next tick", foreign: []time.Duration{time.Second}, until: endOfTime, now: at(2), want: int(time.Second/p) - 2},
		{name: "nothing else pending", until: endOfTime, want: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			count := func(limit int) (n int, now time.Time, seq uint64, ran time.Time) {
				v := NewVirtual()
				ev := v.AfterFunc(p, func() {}).(*event)
				for _, d := range tc.foreign {
					v.AfterFunc(d, func() {})
				}
				if tc.hold {
					defer v.Hold()()
				}
				v.mu.Lock()
				if v.popLocked(tc.until) != ev {
					t.Fatal("the popped event is not the sampler's")
				}
				if !tc.now.IsZero() {
					v.now = tc.now
				}
				v.mu.Unlock()
				for next := at(2); ; {
					k := v.runInPlace(ev, next, p, limit)
					if n += k; k == 0 || limit > 1 {
						break
					}
					next = next.Add(p)
				}
				return n, v.Now(), v.seq, ev.ran
			}
			n, now, seq, ran := count(math.MaxInt)
			if n != tc.want {
				t.Fatalf("a run of %d ticks after the popped one, want %d", n, tc.want)
			}
			n1, now1, seq1, ran1 := count(1)
			if n != n1 || !now.Equal(now1) || seq != seq1 || !ran.Equal(ran1) {
				t.Fatalf("run: %d ticks, clock %v, seq %d, ran %v; one at a time: %d, %v, %d, %v",
					n, now.Sub(Epoch), seq, ran.Sub(Epoch), n1, now1.Sub(Epoch), seq1, ran1.Sub(Epoch))
			}
			if n > 0 && !now.Equal(at(1+n)) {
				t.Fatalf("clock at %v after a run of %d, want the last tick %v", now.Sub(Epoch), n, at(1+n).Sub(Epoch))
			}
		})
	}

	t.Run("one Step hands the sampler its run", func(t *testing.T) {
		v := NewVirtual()
		var runs [][2]int64
		sm := NewSampler(v, p, func(first time.Time, n int) {
			runs = append(runs, [2]int64{int64(first.Sub(Epoch) / p), int64(n)})
		})
		defer sm.Stop()
		v.AfterFunc(10*p, func() {})
		v.Step()
		v.Step() // the foreign timer
		if want := [][2]int64{{1, 9}}; !reflect.DeepEqual(runs, want) {
			t.Fatalf("runs (first tick, length) %v after the foreign timer, want %v: the tick on it waits for the next Step", runs, want)
		}
		v.Step() // a lone sampler: one tick per Step
		v.Step()
		if want := [][2]int64{{1, 9}, {10, 1}, {11, 1}}; !reflect.DeepEqual(runs, want) {
			t.Fatalf("runs %v, want %v", runs, want)
		}
	})
}

// TestTickerBatchRace arms timers and takes holds from other goroutines
// while a Step driver's batches run, and then drives with two goroutines
// at once: under -race the batch's reads of the heap and of the driver's
// target must be clean, and every tick still runs, in order — a
// Ticker's one call at a time, a sampler's in runs.
func TestTickerBatchRace(t *testing.T) {
	t.Run("ticker", func(t *testing.T) { batchRace(t, newBatchTicker) })
	t.Run("sampler", func(t *testing.T) { batchRace(t, newBatchSampler) })
}

// racePeriod is the raced ticker's period.
const racePeriod = 100 * time.Microsecond

func batchRace(t *testing.T, start func(Clock, time.Duration, func(time.Time)) stopper) {
	v := NewVirtual()
	var mu sync.Mutex
	var ticks []time.Time
	tk := start(v, racePeriod, func(now time.Time) {
		mu.Lock()
		ticks = append(ticks, now)
		mu.Unlock()
	})
	var foreign atomic.Int64
	bound := NewTicker(v, time.Millisecond, func(time.Time) {}) // the deadline batches run up to

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // arms timers while batches run
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			v.AfterFunc(time.Duration(i%50)*37*time.Microsecond, func() { foreign.Add(1) })
		}
	}()
	go func() { // holds the clock now and then while batches run
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				release := v.Hold()
				runtime.Gosched()
				release()
				runtime.Gosched()
			}
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
	v.RunUntil(v.Now().Add(time.Second))

	mu.Lock()
	defer mu.Unlock()
	for i, at := range ticks {
		if want := Epoch.Add(time.Duration(i+1) * racePeriod); !at.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, at.Sub(Epoch), want.Sub(Epoch))
		}
	}
	if n := foreign.Load(); n != 2000 {
		t.Fatalf("%d of 2000 foreign timers fired", n)
	}
}
