package core

import "batterylab/internal/simclock"

// loops holds one hand-written clock driver beside loops the rule lets
// pass.
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
