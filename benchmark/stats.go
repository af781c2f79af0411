package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between order statistics; 0 for an empty slice. vals is
// not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// scale multiplies vals by k in place and returns it.
func scale(vals []float64, k float64) []float64 {
	for i := range vals {
		vals[i] *= k
	}
	return vals
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), which is what
// the repeat check and the driver compare spreads with. It needs at
// least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // the i-th of three cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // may fall outside 0..4: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentile is the reporting rule of the metrics guide: beside the
// median, the highest of the usual tail percentiles that still has at
// least ten samples beyond it. With fewer than 50 samples there is none
// (0 is returned).
func tailPercentile(n int) float64 {
	for _, t := range []struct {
		p            float64
		beyondPerMil int
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {80, 200}} {
		if n*t.beyondPerMil >= 10*1000 {
			return t.p
		}
	}
	return 0
}
