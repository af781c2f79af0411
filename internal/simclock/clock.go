// Package simclock provides real and virtual clocks behind one interface.
//
// Every time-dependent component in BatteryLab takes a simclock.Clock so
// that experiments run deterministically (and thousands of times faster
// than wall time) under a Virtual clock, while the daemons in cmd/ run the
// same code on the Real clock.
package simclock

import "time"

// Clock abstracts the passage of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now reports the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run when d has elapsed and returns a
	// Timer that can cancel it. f runs on the clock's dispatch context:
	// for the Real clock that is a new goroutine, for a Virtual clock it
	// is the goroutine calling Advance/Run.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Timer is a handle to a pending AfterFunc.
type Timer interface {
	// Stop cancels the timer if it has not fired yet. It reports whether
	// the call prevented the function from running.
	Stop() bool
	// Reset re-arms the timer to run its function when d has elapsed
	// from now, whether it is pending, has fired or was stopped, and
	// reports whether it was pending. It orders the timer among others
	// with the same deadline exactly as a fresh AfterFunc made at this
	// moment would be ordered, and allocates nothing.
	Reset(d time.Duration) bool
}
