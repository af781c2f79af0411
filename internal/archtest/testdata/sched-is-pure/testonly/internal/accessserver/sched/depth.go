package sched

// Depth is the queue's length, an accessor only a test of the access
// server reads.
func (q *Sched) Depth() int { return len(q.queue) }
