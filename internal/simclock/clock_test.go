package simclock

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvanceMovesTime(t *testing.T) {
	v := NewVirtual()
	v.Advance(3 * time.Second)
	if got := v.Now().Sub(Epoch); got != 3*time.Second {
		t.Fatalf("advanced %v, want 3s", got)
	}
}

func TestVirtualAfterFuncFiresAtDeadline(t *testing.T) {
	v := NewVirtual()
	var fired time.Time
	v.AfterFunc(2*time.Second, func() { fired = v.Now() })
	v.Advance(time.Second)
	if !fired.IsZero() {
		t.Fatal("timer fired early")
	}
	v.Advance(time.Second)
	if want := Epoch.Add(2 * time.Second); !fired.Equal(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

func TestVirtualTimersFireInOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	v.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	v.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	v.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestVirtualEqualDeadlinesFIFO(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	v.Advance(time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (got %v)", i, got, i, order)
		}
	}
}

func TestVirtualStopPreventsFiring(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	v.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
}

func TestVirtualCallbackSeesOwnDeadline(t *testing.T) {
	v := NewVirtual()
	var seen time.Time
	v.AfterFunc(90*time.Millisecond, func() { seen = v.Now() })
	v.Advance(time.Second)
	if want := Epoch.Add(90 * time.Millisecond); !seen.Equal(want) {
		t.Fatalf("callback saw %v, want %v", seen, want)
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	v := NewVirtual()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			v.AfterFunc(time.Second, step)
		}
	}
	v.AfterFunc(time.Second, step)
	v.Advance(10 * time.Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if want := Epoch.Add(10 * time.Second); !v.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", v.Now(), want)
	}
}

func TestVirtualRunWhile(t *testing.T) {
	always := func() bool { return true }
	never := func() time.Time { return Epoch.Add(24 * time.Hour) }

	v := NewVirtual()
	n := 0
	v.AfterFunc(time.Minute, func() { n++ })
	v.AfterFunc(time.Hour, func() { n++ })
	if err := v.RunWhile(always, never); !errors.Is(err, ErrStalled) {
		t.Fatalf("RunWhile on a draining clock = %v, want ErrStalled", err)
	}
	if n != 2 {
		t.Fatalf("fired %d timers, want 2", n)
	}
	if want := Epoch.Add(time.Hour); !v.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", v.Now(), want)
	}

	v = NewVirtual()
	v.AfterFunc(time.Hour, func() { t.Fatal("fired past the limit") })
	err := v.RunWhile(always, func() time.Time { return Epoch.Add(time.Minute) })
	if !errors.Is(err, ErrPastLimit) || !strings.Contains(err.Error(), "10:00:00") || !strings.Contains(err.Error(), "09:01:00") {
		t.Fatalf("RunWhile with the next event past its limit = %v, want ErrPastLimit naming both instants", err)
	}
	if !v.Now().Equal(Epoch) {
		t.Fatalf("clock moved to %v", v.Now())
	}
	if err := v.RunWhile(func() bool { return false }, never); err != nil || !v.Now().Equal(Epoch) {
		t.Fatalf("RunWhile with nothing to do = %v at %v, want nil at the epoch", err, v.Now())
	}
}

func TestTickerPeriodicFiring(t *testing.T) {
	v := NewVirtual()
	var ticks []time.Time
	tk := NewTicker(v, 100*time.Millisecond, func(now time.Time) {
		ticks = append(ticks, now)
	})
	defer tk.Stop()
	v.Advance(time.Second)
	if len(ticks) != 10 {
		t.Fatalf("got %d ticks, want 10", len(ticks))
	}
	for i, tick := range ticks {
		want := Epoch.Add(time.Duration(i+1) * 100 * time.Millisecond)
		if !tick.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	v := NewVirtual()
	n := 0
	tk := NewTicker(v, time.Second, func(time.Time) { n++ })
	v.Advance(3 * time.Second)
	tk.Stop()
	v.Advance(3 * time.Second)
	if n != 3 {
		t.Fatalf("ticks after stop: got %d total, want 3", n)
	}
}

func TestTickerNoDrift(t *testing.T) {
	v := NewVirtual()
	var last time.Time
	NewTicker(v, 7*time.Millisecond, func(now time.Time) { last = now })
	v.Advance(7 * 1000 * time.Millisecond)
	want := Epoch.Add(7 * 1000 * time.Millisecond)
	if !last.Equal(want) {
		t.Fatalf("last tick %v, want %v (drift)", last, want)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real Now() = %v way before time.Now()", now)
	}
	var fired atomic.Bool
	c.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	deadline := time.Now().Add(2 * time.Second)
	for !fired.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !fired.Load() {
		t.Fatal("real AfterFunc never fired")
	}
}

func TestVirtualRunUntilPast(t *testing.T) {
	v := NewVirtual()
	now := v.Now()
	v.RunUntil(now.Add(-time.Hour)) // no-op
	if !v.Now().Equal(now) {
		t.Fatal("RunUntil moved time backwards")
	}
}
