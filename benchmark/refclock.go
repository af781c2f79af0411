package main

import (
	"sync"
	"time"
)

// The reference clock. This benchmark runs on shared hosts whose speed
// drifts by a third over minutes (see README.md "The reference clock"); a
// wall time taken there says as much about the neighbours as about the
// program. So the harness runs a fixed reference loop in thin slices
// between units of work, all through every timed region, and reports
// times as they would read on a machine where one unit of that loop
// takes refNS: measured wall (slices taken out) × refNS ÷ the loop's mean
// cost per unit over the same region. The raw walls are printed beside
// them.
//
// One unit of the loop is refSmallSteps xorshift steps that each update a
// random word of a 32 KiB table (integer work that stays in the L1) and
// then one that updates a random word of a 32 MiB table (a read beyond
// the L2 on every step): on this box about half its time is compute and
// half is memory, which is how the program splits. Measured side by side
// with the program over 133 passes on a busy host, the blend left a mean
// quartile spread of 10 % between runs where either table alone left
// 13 %, one table sized at the L2 17 %, and no correction 26 % (see
// README.md).
const (
	refNS         = 40.0                  // ns per unit on the reference machine
	refSmall      = 1 << 12               // uint64 entries: 32 KiB
	refBig        = 1 << 22               // uint64 entries: 32 MiB
	refSmallSteps = 10                    // small-table steps per big-table step
	refSliceUnits = 1 << 13               // units per slice, about 0.4 ms
	refEvery      = 10 * time.Millisecond // at most one slice per this much work
)

type refClock struct {
	mu         sync.Mutex
	small, big []uint64
	lastEnd    time.Time
	units      int64
	spent      time.Duration
	sink       uint64
	tr         *tracer // the traced run's tracer: slices show as bench spans
}

// ref is the process's reference clock. Work happens on one goroutine at
// a time in every workload, but the measure workload's marks and ticks
// come from different ones, hence the mutex.
var ref = newRefClock()

func newRefClock() *refClock {
	r := &refClock{small: make([]uint64, refSmall), big: make([]uint64, refBig)}
	for i := range r.big { // touch every page now, not inside the first slices
		r.big[i] = uint64(i)
	}
	return r
}

// walk does n xorshift steps from x, each adding to a random word of
// table (whose length is a power of two), and returns the last state.
func walk(table []uint64, x uint64, n int) uint64 {
	mask := uint64(len(table) - 1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&mask] += x
	}
	return x
}

// tick is called at unit-of-work boundaries (a request finished, a clock
// step returned); it runs one slice if refEvery has passed since the
// last one.
func (r *refClock) tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if time.Since(r.lastEnd) < refEvery {
		return
	}
	sp := r.tr.begin(0, 0, "bench", "refclock")
	defer r.tr.end(sp)
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15) + uint64(r.units)
	x = walk(r.small, x, refSmallSteps*refSliceUnits)
	x = walk(r.big, x, refSliceUnits)
	r.sink += x
	r.lastEnd = time.Now()
	r.spent += r.lastEnd.Sub(start)
	r.units += refSliceUnits
}

// refMark is a point in time on the reference clock.
type refMark struct {
	at    time.Time
	units int64
	spent time.Duration
}

func (r *refClock) mark() refMark {
	r.mu.Lock()
	defer r.mu.Unlock()
	return refMark{at: time.Now(), units: r.units, spent: r.spent}
}

// since reports the region from m to now: its wall with the slices taken
// out, and the factor that turns that wall into reference-machine time
// (1 when no slice fell inside the region).
func (r *refClock) since(m refMark) (work time.Duration, factor float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	work = time.Since(m.at) - (r.spent - m.spent)
	factor = 1
	if n := r.units - m.units; n > 0 {
		factor = refNS / (float64(r.spent-m.spent) / float64(n))
	}
	return work, factor
}

// nsPerUnit is the loop's mean cost per unit over every slice so far:
// the report's bench.calibration_ns, which says how fast the host was
// during the run (refNS on the reference machine).
func (r *refClock) nsPerUnit() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.units == 0 {
		return 0
	}
	return float64(r.spent) / float64(r.units)
}
