package sched

import "time"

// stamp reads the wall clock inside the scheduler core.
func stamp() time.Time { return time.Now() }

var _ = stamp // reached, so only the rule under test trips
