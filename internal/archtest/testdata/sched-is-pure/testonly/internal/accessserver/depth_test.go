package accessserver

import "batterylab/internal/accessserver/sched"

// A drift oracle recounting the scheduler's state from outside it.
var _ = (*sched.Sched).Depth
