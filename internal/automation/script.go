// Package automation implements BatteryLab's three test-automation
// strategies (§3.3) behind one Driver interface — ADB (over USB, WiFi or
// Bluetooth), instrumented UI tests, and the Bluetooth HID keyboard —
// plus the Script/Executor machinery that runs experiment scripts on
// either the real clock (daemons) or the virtual clock (experiments and
// tests).
package automation

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/simclock"
)

// Step is one scripted action: a function to perform and the simulated
// time the script occupies before the next step (action latency plus any
// scripted dwell).
type Step struct {
	Name string
	Do   func() error
	Wait time.Duration
}

// Script is an ordered list of steps, built incrementally.
type Script struct {
	name  string
	steps []Step
}

// NewScript returns an empty named script.
func NewScript(name string) *Script {
	return &Script{name: name}
}

// Name reports the script name.
func (s *Script) Name() string { return s.name }

// Len reports the number of steps.
func (s *Script) Len() int { return len(s.steps) }

// Add appends a step with an action and a wait.
func (s *Script) Add(name string, wait time.Duration, do func() error) *Script {
	s.steps = append(s.steps, Step{Name: name, Do: do, Wait: wait})
	return s
}

// Sleep appends a pure wait (the "wait 6 seconds emulating a typical
// page load time" idiom).
func (s *Script) Sleep(d time.Duration) *Script {
	return s.Add("sleep", d, nil)
}

// Steps returns a copy of the script's steps, in order. Callers that
// need to observe or wrap step execution (the session API's workload
// step events) rebuild a script from these.
func (s *Script) Steps() []Step {
	return append([]Step{}, s.steps...)
}

// TotalWait reports the script's scripted duration.
func (s *Script) TotalWait() time.Duration {
	var total time.Duration
	for _, st := range s.steps {
		total += st.Wait
	}
	return total
}

// Executor runs scripts on a clock. Steps execute in order; each step's
// action runs at its scheduled instant and the next step follows after
// the step's wait. A step error aborts the script.
type Executor struct {
	clock simclock.Clock
}

// NewExecutor returns an executor on the given clock.
func NewExecutor(clock simclock.Clock) *Executor {
	return &Executor{clock: clock}
}

// ErrAborted reports a script cancelled via the returned Run handle.
var ErrAborted = errors.New("automation: script aborted")

// Run starts the script and returns immediately with a handle. done is
// invoked exactly once with the script's outcome (nil on success). On a
// virtual clock the caller must advance time for steps to fire.
func (e *Executor) Run(s *Script, done func(error)) *Run {
	r := &Run{clock: e.clock}
	if done == nil {
		done = func(error) {}
	}
	r.finish = done
	r.advance(s, 0)
	return r
}

// Run is a handle to an in-flight script. Steps fire on the clock's
// dispatch context; Abort may be called from any goroutine (a session
// cancelling a workload on the real clock).
type Run struct {
	clock  simclock.Clock
	finish func(error)

	mu      sync.Mutex
	aborted bool
	done    bool
	timer   simclock.Timer
}

func (r *Run) advance(s *Script, idx int) {
	if idx >= len(s.steps) {
		r.complete(nil)
		return
	}
	step := s.steps[idx]
	r.mu.Lock()
	aborted := r.aborted
	r.mu.Unlock()
	if aborted {
		r.complete(ErrAborted)
		return
	}
	if step.Do != nil {
		if err := step.Do(); err != nil {
			r.complete(fmt.Errorf("automation: step %q: %w", step.Name, err))
			return
		}
	}
	t := r.clock.AfterFunc(step.Wait, func() {
		r.advance(s, idx+1)
	})
	r.mu.Lock()
	r.timer = t
	r.mu.Unlock()
}

func (r *Run) complete(err error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	r.mu.Unlock()
	r.finish(err)
}

// Abort cancels the remaining steps; the done callback receives
// ErrAborted at the next step boundary (or immediately if idle).
func (r *Run) Abort() {
	r.mu.Lock()
	r.aborted = true
	t := r.timer
	r.mu.Unlock()
	if t != nil && t.Stop() {
		r.complete(ErrAborted)
	}
}
