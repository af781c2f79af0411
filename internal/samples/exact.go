package samples

import (
	"math"
	"slices"
)

const (
	// selectBuckets is how many equal-width ranges SelectQuantiles counts
	// values into between their least and greatest; only the ranges that
	// hold a wanted order statistic are gathered to find it.
	selectBuckets = 4096
	// selectSortMax is the most values SelectQuantiles sorts instead of
	// counting: below it a sort costs less than clearing and scanning the
	// counts.
	selectSortMax = 256
	// selectDepth bounds how many times a gathered range still too crowded
	// to sort is counted again over its own extremes before it is sorted
	// all the same: values spread over hundreds of binary orders of
	// magnitude can crowd one range at every level.
	selectDepth = 4
	// selectMaxPs is the most quantiles SelectQuantiles selects in one
	// pair of passes, and Levels in one walk.
	selectMaxPs = 8
)

// SelectQuantiles sets q[i] to the exact ps[i]-quantile of the non-NaN
// values in cols: the order statistics QuantileSorted interpolates
// between, as the sorted sample holds them, with −0 ordered before +0.
// So it is stats.Quantile of those values, bit for bit, whenever they do
// not mix zeros of both signs (whose order a sort leaves as it met them).
// NaN when there is no value.
//
// lo and hi must be the least and greatest of the values, as a Welford
// that folded them reports. cols are read and never written or reordered.
// The cost is two passes over the values and no copy of them: the first
// counts them into selectBuckets equal ranges between lo and hi, the
// second gathers the values of the few ranges that hold a wanted order
// statistic, which are then sorted or, if crowded, counted again. Few
// values, or a span hi − lo that no float64 holds, are copied and sorted
// instead.
func SelectQuantiles(q, ps []float64, lo, hi float64, cols ...[]float64) {
	var small [selectSortMax]float64
	var starts [selectBuckets + 1]int32
	s := newSelection(lo, hi, cols, small[:], &starts, 0)
	s.quantiles(q, ps)
}

// quantiles sets q[i] to the ps[i]-quantile of the s.n values as
// QuantileSorted interpolates it between the order statistics at finds,
// for at most 2·selectMaxPs ranks a call. NaN when there is no value.
func (s *selection) quantiles(q, ps []float64) {
	for len(ps) > selectMaxPs {
		s.quantiles(q[:selectMaxPs], ps[:selectMaxPs])
		q, ps = q[selectMaxPs:], ps[selectMaxPs:]
	}
	n := s.n
	if n == 0 {
		for i := range ps {
			q[i] = math.NaN()
		}
		return
	}
	// Each p needs the values of two ranks, which depend on n.
	var rbuf [2 * selectMaxPs]int
	var vals [2 * selectMaxPs]float64
	ranks := rbuf[:0]
	for _, p := range ps {
		a, b, _ := quantileRanks(n, p)
		ranks = append(ranks, a, b)
	}
	s.at(vals[:], ranks)
	for i, p := range ps {
		a, b, frac := quantileRanks(n, p)
		q[i] = interpolate(vals[2*i], vals[2*i+1], a == b, frac)
	}
}

// quantileRanks is where QuantileSorted reads an n-value sorted sample
// for its p-quantile: between the order statistics a and b (0-based),
// with weight frac on b.
func quantileRanks(n int, p float64) (a, b int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 1 {
		return n - 1, n - 1, 0
	}
	pos := p * float64(n-1)
	a, b = int(math.Floor(pos)), int(math.Ceil(pos))
	return a, b, pos - float64(a)
}

// interpolate is QuantileSorted's value between the order statistics x
// and y: x itself when they are one rank.
func interpolate(x, y float64, same bool, frac float64) float64 {
	if same {
		return x
	}
	return x*(1-frac) + y*frac
}

// sortTotal sorts vs, which holds no NaN, ascending with −0 before +0:
// a sort holds the zeros equal and leaves their signs as it met them.
func sortTotal(vs []float64) {
	slices.Sort(vs)
	i, _ := slices.BinarySearch(vs, 0) // the first zero, if there is one
	neg, j := 0, i
	for ; j < len(vs) && vs[j] == 0; j++ {
		if math.Signbit(vs[j]) {
			neg++
		}
	}
	for k := i; k < j; k++ {
		vs[k] = math.Copysign(0, float64(k-i-neg)) // −0 for the first neg
	}
}

// selection finds values by rank among the n non-NaN values of cols, in
// the first of four ways that applies:
//
//   - levels: the values are counted on a grid (Levels.Quantiles), and
//     cols are not needed.
//   - equal: every value is lo, numerically, so only a zero's sign tells
//     values apart; negZeros counts the −0s.
//   - sorted: a sorted copy of the values.
//   - counted: starts[k] is how many values lie in the ranges below range
//     k, each 1/scale wide from lo.
type selection struct {
	n     int
	cols  [][]float64
	lo    float64
	depth int

	levels *Levels

	equal    bool
	negZeros int

	sorted []float64

	scale  float64
	starts *[selectBuckets + 1]int32
}

// newSelection takes in the values of cols, least lo and greatest hi, at
// the given depth of counting. A sorted copy goes into scratch when it has
// room, and counts into starts, which must be zero; nil allocates them.
func newSelection(lo, hi float64, cols [][]float64, scratch []float64, starts *[selectBuckets + 1]int32, depth int) selection {
	s := selection{cols: cols, lo: lo, depth: depth}
	total := 0
	for _, c := range cols {
		total += len(c)
	}
	width := hi - lo
	scale := selectBuckets / width
	switch {
	case lo == hi:
		s.equal = true
		for _, c := range cols {
			for _, v := range c {
				if v == v {
					s.n++
					if v == 0 && math.Signbit(v) {
						s.negZeros++
					}
				}
			}
		}
	case total <= selectSortMax || total > math.MaxInt32 ||
		math.IsInf(width, 0) || math.IsNaN(width) || math.IsInf(scale, 0):
		// A copy: a caller's columns are never reordered.
		s.sorted = scratch[:0]
		if total > len(scratch) {
			s.sorted = make([]float64, 0, total)
		}
		for _, c := range cols {
			for _, v := range c {
				if v == v {
					s.sorted = append(s.sorted, v)
				}
			}
		}
		sortTotal(s.sorted)
		s.n = len(s.sorted)
	default:
		if starts == nil {
			starts = new([selectBuckets + 1]int32)
		}
		s.scale, s.starts = scale, starts
		counts := (*[selectBuckets]int32)(starts[1:])
		for _, c := range cols {
			for _, v := range c {
				if v == v {
					counts[bucket(v, lo, scale)]++
				}
			}
		}
		// starts[k+1] holds range k's count; summed up, it is how many
		// values lie below range k+1.
		for k := 1; k <= selectBuckets; k++ {
			starts[k] += starts[k-1]
		}
		s.n = int(starts[selectBuckets])
	}
	return s
}

// bucket is the range a non-NaN value between lo and hi is counted in,
// for ranges 1/scale wide from lo. It never decreases as v grows, since
// the subtraction and the product each round monotonically: no value is
// counted below a lesser one.
func bucket(v, lo, scale float64) uint {
	return min(uint(int((v-lo)*scale)), selectBuckets-1)
}

// at sets vals[j] to the value of rank ranks[j] (0-based, below n).
func (s *selection) at(vals []float64, ranks []int) {
	switch {
	case s.levels != nil:
		s.levels.at(vals, ranks)
	case s.equal:
		for j, r := range ranks {
			vals[j] = s.lo
			if s.lo == 0 {
				vals[j] = math.Copysign(0, float64(r-s.negZeros)) // −0 for the first negZeros
			}
		}
	case s.sorted != nil:
		for j, r := range ranks {
			vals[j] = s.sorted[r]
		}
	default:
		s.gather(vals, ranks)
	}
}

// gather is at over counted ranges: it finds the range of each rank,
// gathers those ranges' values in a second pass over the columns, and
// finds each rank among its range's values.
func (s *selection) gather(vals []float64, ranks []int) {
	// ks are the distinct ranges holding a wanted rank, and in[j] is the
	// index in ks of rank j's.
	var kbuf, ibuf [2 * selectMaxPs]int
	ks, in := kbuf[:0], ibuf[:0]
	for _, r := range ranks {
		// The last range starting at or below r holds it: an empty range
		// starts where the next one does.
		k, _ := slices.BinarySearch(s.starts[:], int32(r)+1)
		k--
		w := slices.Index(ks, k)
		if w < 0 {
			w = len(ks)
			ks = append(ks, k)
		}
		in = append(in, w)
	}

	// One buffer, cut into a part per gathered range.
	size := 0
	for _, k := range ks {
		size += int(s.starts[k+1] - s.starts[k])
	}
	var small [512]float64
	buf := small[:]
	if size > len(small) {
		buf = make([]float64, size)
	}
	var parts [2 * selectMaxPs][]float64
	var mark [selectBuckets]uint8 // 1 + the range's index in ks; 0 for the rest
	for w, k := range ks {
		c := int(s.starts[k+1] - s.starts[k])
		parts[w], buf = buf[:0:c], buf[c:]
		mark[k] = uint8(w + 1)
	}
	lo, scale := s.lo, s.scale
	for _, c := range s.cols {
		for _, v := range c {
			if v == v {
				if m := mark[bucket(v, lo, scale)]; m != 0 {
					parts[m-1] = append(parts[m-1], v)
				}
			}
		}
	}

	for w, k := range ks {
		// Rank r among all values is rank r - starts[k] among its range's.
		part, below := parts[w], int(s.starts[k])
		lo, hi := part[0], part[0]
		for _, v := range part {
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo != hi && len(part) > selectSortMax && s.depth+1 < selectDepth {
			// Crowded: counted again over its own extremes, in memory of its
			// own, as a selection that may reach further down needs.
			sub := newSelection(lo, hi, [][]float64{slices.Clone(part)}, nil, nil, s.depth+1)
			for j, r := range ranks {
				if in[j] == w {
					sub.at(vals[j:j+1], []int{r - below})
				}
			}
			continue
		}
		sortTotal(part)
		for j, r := range ranks {
			if in[j] == w {
				vals[j] = part[r-below]
			}
		}
	}
}
