package simclock

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestTickerRearm pins what the in-place re-arm must preserve from the
// ticker that scheduled a new timer per tick: nominal deadlines, FIFO
// order against other timers at an equal instant, and the heap's size.
func TestTickerRearm(t *testing.T) {
	t.Run("interleaving at an equal instant", func(t *testing.T) {
		v := NewVirtual()
		var log []string
		at := func(name string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", name, v.Now().Sub(Epoch).Milliseconds())) }
		}
		// Armed before A: were the re-arm to keep its first seq, every
		// tick would sort ahead of A and B.
		tk := NewTicker(v, 10*time.Millisecond, func(now time.Time) {
			if !now.Equal(v.Now()) {
				t.Errorf("tick deadline %v, clock %v", now, v.Now())
			}
			at("tick")()
		})
		defer tk.Stop()
		v.AfterFunc(20*time.Millisecond, at("A")) // queued before the tick at 10 re-arms for 20
		v.AfterFunc(10*time.Millisecond, func() { // runs after the tick at 10, so B queues behind the re-arm
			v.AfterFunc(10*time.Millisecond, at("B"))
		})
		v.Advance(30 * time.Millisecond)
		want := []string{"tick@10", "A@20", "tick@20", "B@20", "tick@30"}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("order = %v, want %v", log, want)
		}
	})

	t.Run("one heap entry per ticker", func(t *testing.T) {
		v := NewVirtual()
		tk := NewTicker(v, time.Millisecond, func(time.Time) {})
		for i := 0; i < 5; i++ {
			if n := pendingTimers(v); n != 1 {
				t.Fatalf("after %d ticks: %d pending timers, want 1", i, n)
			}
			v.Step()
		}
		// A stopped ticker's timer stays queued as a no-op until its
		// deadline, as a stopped AfterFunc does.
		tk.Stop()
		if n := pendingTimers(v); n != 1 {
			t.Fatalf("after Stop: %d pending timers, want 1", n)
		}
		v.Advance(time.Millisecond)
		if n := pendingTimers(v); n != 0 {
			t.Fatalf("after the stopped deadline: %d pending timers, want 0", n)
		}
	})

	t.Run("Stop from inside the callback", func(t *testing.T) {
		v := NewVirtual()
		n := 0
		var tk *Ticker
		tk = NewTicker(v, time.Millisecond, func(time.Time) {
			if n++; n == 3 {
				tk.Stop()
			}
		})
		v.Advance(10 * time.Millisecond)
		if n != 3 {
			t.Fatalf("%d ticks, want 3", n)
		}
		if p := pendingTimers(v); p != 0 {
			t.Fatalf("%d pending timers after an in-callback Stop, want 0", p)
		}
	})

	t.Run("a steady tick allocates nothing", func(t *testing.T) {
		v := NewVirtual()
		tk := NewTicker(v, time.Millisecond, func(time.Time) {})
		defer tk.Stop()
		if n := testing.AllocsPerRun(1000, func() { v.Step() }); n != 0 {
			t.Fatalf("%v allocations per tick", n)
		}
	})
}

func TestVirtualTimerReset(t *testing.T) {
	ms := time.Millisecond
	t.Run("pending", func(t *testing.T) {
		v := NewVirtual()
		var fired []time.Duration
		tm := v.AfterFunc(10*ms, func() { fired = append(fired, v.Now().Sub(Epoch)) })
		v.Advance(4 * ms)
		if !tm.Reset(10 * ms) {
			t.Fatal("Reset of a pending timer reported false")
		}
		if n := pendingTimers(v); n != 1 {
			t.Fatalf("%d pending timers, want 1", n)
		}
		v.Advance(20 * ms)
		if !reflect.DeepEqual(fired, []time.Duration{14 * ms}) {
			t.Fatalf("fired at %v, want once at 14ms", fired)
		}
	})
	t.Run("fired", func(t *testing.T) {
		v := NewVirtual()
		n := 0
		tm := v.AfterFunc(ms, func() { n++ })
		v.Advance(ms)
		if tm.Reset(ms) {
			t.Fatal("Reset of a fired timer reported true")
		}
		v.Advance(ms)
		if n != 2 {
			t.Fatalf("ran %d times, want 2", n)
		}
		if tm.Stop() {
			t.Fatal("Stop after the second firing reported true")
		}
	})
	t.Run("stopped, still queued", func(t *testing.T) {
		v := NewVirtual()
		var fired []time.Duration
		tm := v.AfterFunc(10*ms, func() { fired = append(fired, v.Now().Sub(Epoch)) })
		tm.Stop()
		if tm.Reset(3 * ms) {
			t.Fatal("Reset of a stopped timer reported true")
		}
		if n := pendingTimers(v); n != 1 {
			t.Fatalf("%d pending timers, want 1", n)
		}
		v.Advance(20 * ms)
		if !reflect.DeepEqual(fired, []time.Duration{3 * ms}) {
			t.Fatalf("fired at %v, want once at 3ms", fired)
		}
	})
	t.Run("orders as a fresh AfterFunc", func(t *testing.T) {
		v := NewVirtual()
		var log []string
		first := v.AfterFunc(5*ms, func() { log = append(log, "first") })
		v.AfterFunc(5*ms, func() { log = append(log, "second") })
		first.Reset(5 * ms) // same deadline, but now queued behind "second"
		v.Advance(5 * ms)
		if want := []string{"second", "first"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("order = %v, want %v", log, want)
		}
	})
}

func TestRealTimerReset(t *testing.T) {
	done := make(chan struct{})
	tm := Real().AfterFunc(time.Hour, func() { close(done) })
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset of a pending timer reported false")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed timer did not fire")
	}
}

// pendingTimers reports how many timers v's queue holds.
func pendingTimers(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.heap)
}
