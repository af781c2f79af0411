// Package driverrule is TestOneClockDriver's fixture: one hand-written
// clock driver beside loops the rule lets pass.
package driverrule

import "batterylab/internal/simclock"

func loops(v *simclock.Virtual, busy func() bool) {
	for busy() { // reads a deadline and fires the clock: the one driver
		next, _ := v.NextDeadline()
		v.RunUntil(next)
	}
	for _, ok := v.NextDeadline(); ok && busy(); _, ok = v.NextDeadline() {
	}
	for v.Step() {
	}
}
