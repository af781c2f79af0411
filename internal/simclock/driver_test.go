package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunWhileMatchesDeadlineLoop drives the random scenarios with
// RunWhile and with the loop it replaces — NextDeadline, then
// RunUntil(next) — and requires the same log and sequence numbers. busy
// is asked between instants only: each of RunWhile's observations is
// one the deadline loop also makes, at the same Now() and log length,
// and both stop at the same one. RunWhile makes fewer, because its
// tickers still batch, which RunUntil(next) forbids.
func TestRunWhileMatchesDeadlineLoop(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		drive := func(run func(s *scenario, busy func() bool)) (log, seen []string) {
			s := newScenario(seed, tickers{ticker: newBatchTicker})
			run(s, func() bool {
				seen = append(seen, fmt.Sprintf("%d lines at %v", len(s.log), s.v.Now().Sub(Epoch)))
				return !s.ended
			})
			return s.finish(), seen
		}
		got, gotSeen := drive(func(s *scenario, busy func() bool) {
			if err := s.v.RunWhile(busy, func() time.Time { return s.end }); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		want, wantSeen := drive(func(s *scenario, busy func() bool) {
			for busy() {
				next, ok := s.v.NextDeadline()
				if !ok {
					t.Fatalf("seed %d: stalled", seed)
				}
				s.v.RunUntil(next)
			}
		})
		sameLog(t, seed, got, want, "the deadline loop")

		i := 0
		for _, obs := range wantSeen {
			if i < len(gotSeen) && gotSeen[i] == obs {
				i++
			}
		}
		if i < len(gotSeen) {
			t.Fatalf("seed %d: RunWhile asked busy with %s, which the deadline loop never saw", seed, gotSeen[i])
		}
		if gotSeen[len(gotSeen)-1] != wantSeen[len(wantSeen)-1] {
			t.Fatalf("seed %d: RunWhile stopped with %s, the deadline loop with %s", seed, gotSeen[len(gotSeen)-1], wantSeen[len(wantSeen)-1])
		}
		if len(gotSeen) >= len(wantSeen) {
			t.Fatalf("seed %d: %d RunWhile turns against %d instants: the tickers did not batch", seed, len(gotSeen), len(wantSeen))
		}
	}
}

// TestRunWhileTakesTurns drives each scenario with two RunWhile callers
// at once. They take turns instant by instant, so the log is the one a
// single caller produces; under -race every callback, on whichever
// goroutine it runs, is ordered after the instant before it.
func TestRunWhileTakesTurns(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		run := func(drivers int) []string {
			s := newScenario(seed, tickers{ticker: newBatchTicker})
			busy := func() bool { return !s.ended }
			limit := func() time.Time { return s.end }
			var wg sync.WaitGroup
			for range drivers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := s.v.RunWhile(busy, limit); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
				}()
			}
			wg.Wait()
			return s.finish()
		}
		sameLog(t, seed, run(2), run(1), "one driver")
	}
}

// TestDriveWhile pins the sharing driver's protocol: it never Steps for
// a caller that is not busy, parks on a held or empty clock and resumes
// on one Hold release or one AfterFunc from another goroutine, and
// returns when stop closes, parked or not.
func TestDriveWhile(t *testing.T) {
	always := func() bool { return true }
	start := func(v *Virtual, busy func() bool) (stop func()) {
		stopCh, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			v.DriveWhile(busy, stopCh)
		}()
		return func() {
			close(stopCh)
			<-done
		}
	}
	waitParked := func(t *testing.T, v *Virtual) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			v.mu.Lock()
			parked := v.wake != nil
			v.mu.Unlock()
			if parked {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the driver never parked")
			}
		}
	}
	await := func(t *testing.T, fired <-chan struct{}, why string) {
		t.Helper()
		select {
		case <-fired:
		case <-time.After(10 * time.Second):
			t.Fatal(why)
		}
	}

	t.Run("not busy, no Step", func(t *testing.T) {
		v := NewVirtual()
		v.AfterFunc(time.Second, func() { t.Error("stepped for a caller that is not busy") })
		var looks atomic.Int32
		stop := start(v, func() bool { looks.Add(1); return false })
		waitParked(t, v)
		stop()
		if n := looks.Load(); n != 2 || !v.Now().Equal(Epoch) {
			t.Fatalf("busy asked %d times and the clock at %v, want twice at the epoch", n, v.Now().Sub(Epoch))
		}
	})

	t.Run("resumes after one Hold release", func(t *testing.T) {
		v := NewVirtual()
		release := v.Hold()
		fired := make(chan struct{})
		v.AfterFunc(time.Second, func() { close(fired) })
		stop := start(v, always)
		defer stop()
		waitParked(t, v)
		select {
		case <-fired:
			t.Fatal("stepped a held clock")
		default:
		}
		release()
		await(t, fired, "the release did not wake the driver")
	})

	t.Run("resumes after one AfterFunc from another goroutine", func(t *testing.T) {
		v := NewVirtual()
		stop := start(v, always)
		defer stop()
		waitParked(t, v)
		fired := make(chan struct{})
		go v.AfterFunc(time.Second, func() { close(fired) })
		await(t, fired, "the timer did not wake the driver")
	})
}
