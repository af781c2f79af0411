package samples

import "math"

// Levels counts levels of the grid k/scale, 0 ≤ k ≤ max, one count per
// level, so that the quantiles of their values float64(k)/scale are exact
// order statistics for the cost of one increment a level. A Monsoon
// reading is such a level: its ADC rounds to 0.1 mA (scale 10) within the
// 6 A envelope.
//
// A count is an int32: a run that could take one past 2³¹ turns the
// counts off. On then reports false until a reset, and the caller takes
// its quantiles from a sorted copy of the values. What was counted stays
// readable as values, so a caller that holds the values nowhere else
// loses none of them.
type Levels struct {
	scale float64
	max   int
	// counts[k] is how many values lie on level k; it grows to the highest
	// level seen and keeps its memory across resets.
	counts []int32
	lo     int // the lowest level counted
	n      int // values counted
	off    bool
}

// maxCount is the most values Levels counts before it turns off: the
// largest an int32 count holds.
var maxCount = math.MaxInt32

// NewLevels returns empty counts of the grid k/scale, 0 ≤ k ≤ max.
func NewLevels(scale float64, max int) *Levels {
	return &Levels{scale: scale, max: max, lo: max}
}

// On reports whether the counts hold every level folded since the last
// reset: whether Quantiles answers. A nil Levels is off.
func (l *Levels) On() bool { return l != nil && !l.off }

// ObserveLevels counts ks, levels of the grid as a grid Series stores
// them, each at most max, with no check: all of them while the counts
// stay on, none once they are off. A run that could overflow a count
// turns them off before it is counted.
func (l *Levels) ObserveLevels(ks []uint32) {
	if l.off {
		return
	}
	if l.n+len(ks) > maxCount { // a count might not hold
		l.off = true
		return
	}
	counts, lo := l.counts, l.lo
	for _, k := range ks {
		if int(k) >= len(counts) {
			// A level above the counts: they grow to it, amortized over
			// doublings of their memory.
			counts = append(counts, make([]int32, int(k)+1-len(counts))...)
			l.counts = counts
		}
		counts[k]++
		lo = min(lo, int(k))
	}
	l.lo, l.n = lo, l.n+len(ks)
}

// values returns the values counted, in ascending order: the multiset the
// counts hold, bit for bit.
func (l *Levels) values() []float64 {
	vs := make([]float64, 0, l.n)
	for k := l.lo; len(vs) < l.n; k++ {
		for range l.counts[k] {
			vs = append(vs, float64(k)/l.scale)
		}
	}
	return vs
}

// reset empties the counts and turns them on. It clears only the levels
// from the lowest counted up to the highest, and keeps their memory.
func (l *Levels) reset() {
	for k, left := l.lo, l.n; left > 0; k++ {
		left -= int(l.counts[k])
		l.counts[k] = 0
	}
	l.lo, l.n, l.off = l.max, 0, false
}

// Quantiles sets q[i] to the exact ps[i]-quantile of the values counted:
// QuantileSorted's interpolation between the order statistics of the
// sorted values, so stats.Quantile of them, bit for bit. NaN when none
// was. It walks the counts from the lowest level seen up to the highest
// rank wanted; quantiles asked for in ascending order share one walk. The
// counts must be On.
func (l *Levels) Quantiles(q, ps []float64) {
	k, below := l.lo, 0 // below counts the values on levels under k
	at := func(r int) float64 {
		if r < below {
			k, below = l.lo, 0
		}
		for below+int(l.counts[k]) <= r {
			below += int(l.counts[k])
			k++
		}
		return float64(k) / l.scale
	}
	for i, p := range ps {
		if l.n == 0 {
			q[i] = math.NaN()
			continue
		}
		a, b, frac := quantileRanks(l.n, p)
		q[i] = interpolate(at(a), at(b), a == b, frac)
	}
}
