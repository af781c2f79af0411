package samples

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func fill(n int) *Series {
	s := NewSeries()
	for i := 0; i < n; i++ {
		s.Append(int64(i)*1e6, float64(i))
	}
	return s
}

func TestSeriesAppendAt(t *testing.T) {
	s := fill(3*ChunkLen + 17)
	if s.Len() != 3*ChunkLen+17 {
		t.Fatalf("len = %d", s.Len())
	}
	for _, i := range []int{0, 1, ChunkLen - 1, ChunkLen, 2*ChunkLen + 5, s.Len() - 1} {
		tn, v := s.At(i)
		if tn != int64(i)*1e6 || v != float64(i) {
			t.Fatalf("At(%d) = (%d, %v)", i, tn, v)
		}
		if s.T(i) != tn || s.V(i) != v {
			t.Fatalf("T/V(%d) disagree with At", i)
		}
	}
}

func TestSeriesZeroValueUsable(t *testing.T) {
	var s Series
	s.Append(1, 2)
	if s.Len() != 1 || s.V(0) != 2 {
		t.Fatal("zero-value series broken")
	}
}

func TestSeriesIterMatchesAt(t *testing.T) {
	s := fill(2*ChunkLen + 3)
	i := 0
	s.Iter(func(tn int64, v float64) bool {
		wt, wv := s.At(i)
		if tn != wt || v != wv {
			t.Fatalf("Iter[%d] = (%d, %v), want (%d, %v)", i, tn, v, wt, wv)
		}
		i++
		return true
	})
	if i != s.Len() {
		t.Fatalf("Iter visited %d of %d", i, s.Len())
	}
}

func TestSeriesIterEarlyStop(t *testing.T) {
	s := fill(100)
	n := 0
	s.Iter(func(int64, float64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSeriesValuesCopy(t *testing.T) {
	s := fill(10)
	vs := s.Values()
	vs[0] = 999
	if s.V(0) == 999 {
		t.Fatal("Values aliases the series")
	}
}

func TestSliceView(t *testing.T) {
	s := fill(3 * ChunkLen)
	v := s.Slice(ChunkLen-2, 2*ChunkLen+3)
	if v.Len() != ChunkLen+5 {
		t.Fatalf("view len = %d", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		wt, wv := s.At(ChunkLen - 2 + i)
		gt, gv := v.At(i)
		if gt != wt || gv != wv {
			t.Fatalf("view At(%d) = (%d, %v), want (%d, %v)", i, gt, gv, wt, wv)
		}
	}
	// Iter agrees with At across the chunk boundaries.
	i := 0
	v.Iter(func(tn int64, val float64) bool {
		wt, wv := v.At(i)
		if tn != wt || val != wv {
			t.Fatalf("view Iter[%d] = (%d, %v), want (%d, %v)", i, tn, val, wt, wv)
		}
		i++
		return true
	})
	if i != v.Len() {
		t.Fatalf("view Iter visited %d of %d", i, v.Len())
	}
	// Views stay valid while capture continues.
	s.Append(int64(s.Len())*1e6, 7)
	if v.Len() != ChunkLen+5 {
		t.Fatal("append changed an existing view")
	}
	vals := v.Values()
	if len(vals) != v.Len() || vals[0] != float64(ChunkLen-2) {
		t.Fatalf("view Values wrong: len=%d first=%v", len(vals), vals[0])
	}
}

func TestSliceBounds(t *testing.T) {
	s := fill(10)
	for _, tc := range [][2]int{{-1, 3}, {4, 2}, {0, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) did not panic", tc[0], tc[1])
				}
			}()
			s.Slice(tc[0], tc[1])
		}()
	}
}

func TestSeriesAppendNeverMovesChunksProperty(t *testing.T) {
	// The zero-copy claim: a view taken mid-capture reads the same
	// values after arbitrarily many further appends.
	if err := quick.Check(func(extra uint8) bool {
		s := fill(ChunkLen + 1)
		v := s.View()
		before := v.Values()
		for i := 0; i < int(extra); i++ {
			s.Append(int64(s.Len())*1e6, rand.Float64())
		}
		after := v.Values()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// V, Slice and View read a series the way the tests check it; production
// code walks it with Iter and Chunks.

// V returns the i-th sample's value.
func (s *Series) V(i int) float64 {
	_, v := s.At(i)
	return v
}

// Slice returns a zero-copy view of samples [i, j). It panics when the
// bounds are out of range, like a slice expression.
func (s *Series) Slice(i, j int) View {
	if i < 0 || j < i || j > s.n {
		panic("samples: Slice bounds out of range")
	}
	return View{s: s, lo: i, hi: j}
}

// View returns a zero-copy view of the whole series.
func (s *Series) View() View { return View{s: s, hi: s.n} }

// View is a zero-copy window [lo, hi) over a Series. Appends to the
// underlying series never move existing chunks, so a view stays valid
// while capture continues.
type View struct {
	s      *Series
	lo, hi int
}

// Len reports the view's sample count.
func (v View) Len() int { return v.hi - v.lo }

// At returns the view's i-th sample.
func (v View) At(i int) (int64, float64) { return v.s.At(v.lo + i) }

// Iter walks the view's samples in order.
func (v View) Iter(fn func(tNanos int64, val float64) bool) {
	idx := v.lo
	for ci := v.lo / ChunkLen; ci < len(v.s.chunks) && idx < v.hi; ci++ {
		c := v.s.chunks[ci]
		base := ci * ChunkLen
		start := idx - base
		end := c.len()
		if base+end > v.hi {
			end = v.hi - base
		}
		for i := start; i < end; i++ {
			if !fn(v.s.At(base + i)) {
				return
			}
			idx++
		}
	}
}

// Values copies the view's value column into a fresh slice.
func (v View) Values() []float64 {
	out := make([]float64, 0, v.Len())
	v.Iter(func(_ int64, val float64) bool {
		out = append(out, val)
		return true
	})
	return out
}

// Values copies the value column into a fresh flat slice.
func (s *Series) Values() []float64 {
	out := make([]float64, 0, s.n)
	s.Iter(func(_ int64, v float64) bool {
		out = append(out, v)
		return true
	})
	return out
}
