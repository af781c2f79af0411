package samples

import (
	"math"
	"slices"
	"sort"
	"sync"
)

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

// sortedQuantiles sets q[i] to the exact ps[i]-quantile of the values of
// cols, which hold no NaN: the order statistics QuantileSorted
// interpolates, with −0 ordered before +0. So it is stats.Quantile of
// those values, bit for bit, whenever they do not mix zeros of both signs
// (whose order a sort leaves as it met them). NaN when there is no value.
// It sorts each column in place (sortTotal) and finds each rank across
// the sorted columns, so a summary's own columns need no copy.
func sortedQuantiles(q, ps []float64, cols ...[]float64) {
	n := 0
	for _, c := range cols {
		sortTotal(c)
		n += len(c)
	}
	for i, p := range ps {
		if n == 0 {
			q[i] = math.NaN()
			continue
		}
		a, b, frac := quantileRanks(n, p)
		q[i] = interpolate(rankOf(a, cols), rankOf(b, cols), a == b, frac)
	}
}

// rankOf returns the value of rank r (0-based, below their count) among
// the values of cols, each sorted in IEEE 754's total order: the least
// value with more than r values at or below it, found by halving the
// range of their order keys.
func rankOf(r int, cols [][]float64) float64 {
	lo, hi := uint64(0), uint64(math.MaxUint64) // the key sought is in [lo, hi]
	for lo < hi {
		mid := lo + (hi-lo)/2
		atOrBelow := 0
		for _, c := range cols {
			atOrBelow += sort.Search(len(c), func(i int) bool { return totalKey(c[i]) > mid })
		}
		if atOrBelow > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo>>63 != 0 { // the key of a value with the sign bit clear
		return math.Float64frombits(lo &^ (1 << 63))
	}
	return math.Float64frombits(^lo)
}

// totalKey is v's place in IEEE 754's total order as an unsigned integer:
// flipping every bit of a negative float's word, and the sign bit of any
// other's, sorts the words as the floats' total order sorts them.
func totalKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortScratch recycles the copies copiedQuantiles sorts, so that a
// series read again and again allocates for none after the first.
var sortScratch = sync.Pool{New: func() any { return new([]float64) }}

// copiedQuantiles is sortedQuantiles of a copy of the non-NaN values of
// cols, which it reads and never writes or reorders: a Series' storage.
func copiedQuantiles(q, ps []float64, cols ...[]float64) {
	buf := sortScratch.Get().(*[]float64)
	vs := (*buf)[:0]
	for _, c := range cols {
		for _, v := range c {
			if v == v {
				vs = append(vs, v)
			}
		}
	}
	sortedQuantiles(q, ps, vs)
	*buf = vs
	sortScratch.Put(buf)
}
