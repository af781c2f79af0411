package samples

import "math"

// Levels counts values that lie on the grid k/scale, 0 ≤ k ≤ max, one
// count per level, so that their quantiles are exact order statistics for
// the cost of one increment a value. A Monsoon reading is such a value:
// its ADC rounds to 0.1 mA (scale 10) within the 6 A envelope.
//
// Whether a value lies on the grid is GridLevel's to say. NaN is skipped.
// A value off the grid, −0 (which a count of level 0 would turn into +0)
// or above max turns the counts off for good: On reports false from then
// on, and the caller selects its quantiles from the values instead.
type Levels struct {
	scale float64
	max   int
	// counts[k] is how many values lie on level k; it grows to the highest
	// level seen.
	counts []int32
	lo     int // the lowest level counted
	n      int // values counted
	off    bool
}

// GridLevel is the one rule of the grid k/scale, 0 ≤ k ≤ max: it returns
// v's level k = int(v*scale+0.5), the rounding that made it, and whether
// v lies on it — float64(k)/scale == v, k within [0, max], and v is not
// −0, which float64(0)/scale would give back as +0. So a value on the
// grid is stored as its level and comes back bit for bit. NaN, ±Inf and
// negative values are off it.
func GridLevel(v, scale float64, max int) (k int, ok bool) {
	k = int(v*scale + 0.5)
	return k, uint(k) <= uint(max) && float64(k)/scale == v && !(k == 0 && math.Signbit(v))
}

// NewLevels returns empty counts of the grid k/scale, 0 ≤ k ≤ max.
func NewLevels(scale float64, max int) *Levels {
	return &Levels{scale: scale, max: max, lo: max}
}

// On reports whether every non-NaN value folded so far was on the grid:
// whether Quantiles answers. A nil Levels is off.
func (l *Levels) On() bool { return l != nil && !l.off }

// ObserveRun counts vs, in order, until a value leaves the grid.
func (l *Levels) ObserveRun(vs []float64) {
	if l.off {
		return
	}
	if l.n+len(vs) > math.MaxInt32 { // a count might not hold
		l.turnOff()
		return
	}
	counts, scale, max := l.counts, l.scale, l.max
	lo, n := l.lo, l.n
	for _, v := range vs {
		if v != v {
			continue
		}
		k, ok := GridLevel(v, scale, max)
		if !ok {
			l.turnOff()
			return
		}
		if k >= len(counts) {
			// A level above the counts: they grow to it, amortized over
			// doublings of their memory.
			counts = append(counts, make([]int32, k+1-len(counts))...)
			l.counts = counts
		}
		counts[k]++
		lo = min(lo, k)
		n++
	}
	l.lo, l.n = lo, n
}

// turnOff forgets the counts: a value left the grid.
func (l *Levels) turnOff() {
	*l = Levels{scale: l.scale, max: l.max, off: true}
}

// Quantiles sets q[i] to the exact ps[i]-quantile of the values counted:
// QuantileSorted's interpolation between the order statistics of the
// sorted values, so stats.Quantile of them, bit for bit. NaN when none
// was. It walks the counts from the lowest level seen up to the highest
// rank wanted; quantiles asked for in ascending order share one walk. The
// counts must be On.
func (l *Levels) Quantiles(q, ps []float64) {
	s := selection{n: l.n, levels: l}
	s.quantiles(q, ps)
}

// at sets vals[j] to the value of rank ranks[j] (0-based, below n),
// walking on from the previous rank's level while the ranks ascend.
func (l *Levels) at(vals []float64, ranks []int) {
	k, below := l.lo, 0 // below counts the values on levels under k
	for j, r := range ranks {
		if r < below {
			k, below = l.lo, 0
		}
		for below+int(l.counts[k]) <= r {
			below += int(l.counts[k])
			k++
		}
		vals[j] = float64(k) / l.scale
	}
}
