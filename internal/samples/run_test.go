package samples

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The per-sample bodies the run bodies replaced, kept as the reference
// they are checked against: each folds one value with the arithmetic,
// in the order, the aggregators used before they took runs.

func (w *Welford) observeOne(v float64) {
	if math.IsNaN(v) {
		w.nans++
		return
	}
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

func (e *P2Quantile) observeOne(v float64) {
	if math.IsNaN(v) {
		return
	}
	if e.n < 5 {
		e.q[e.n] = v
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			e.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	e.n++

	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}

	for i := 1; i <= 3; i++ {
		d := e.want[i-1] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			q := e.parabolic(i, s)
			if e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

func (tr *Trapezoid) addOne(tNanos int64, v float64) {
	if math.IsNaN(v) {
		return
	}
	if tr.n > 0 {
		dt := float64(tNanos-tr.prevT) / 1e9
		tr.total += dt * (v + tr.prevV) / 2
	}
	tr.prevT, tr.prevV = tNanos, v
	tr.n++
}

// Levels had no per-sample body: its reference is a run of one, of ks,
// v's level on a grid (nil with none).
func (ss *StreamSummary) addOne(tNanos int64, v float64, ks []uint32) {
	ss.mom.observeOne(v)
	ss.integ.addOne(tNanos, v)
	if ss.levels != nil {
		ss.levels.ObserveLevels(ks)
	}
}

// Add folds one sample in: a run of one.
func (ss *StreamSummary) Add(tNanos int64, v float64) {
	ss.AddRun([]int64{tNanos}, []float64{v})
}

func (es *ExactSummary) addOne(tNanos int64, v float64) {
	es.sum.addOne(tNanos, v, nil)
	if len(es.vals) == 0 {
		es.vals = [][]float64{nil}
	}
	if v == v {
		es.vals[0] = append(es.vals[0], v)
	}
}

// state is what an ExactSummary holds, whatever the columns it keeps its
// values in and their order, which a snapshot sorts: the folds and the
// values, sorted.
func (es *ExactSummary) state() []any {
	vs := slices.Concat(es.vals...)
	sortTotal(vs)
	return []any{es.sum, vs}
}

func (wd *Windowed) addOne(tNanos int64, v float64) {
	if k := wd.bucketOf(tNanos); !wd.started || k > wd.curIdx {
		wd.open(k)
	}
	wd.cur.addOne(tNanos, v)
}

// Add folds one sample in: a run of one.
func (tr *Trapezoid) Add(tNanos int64, v float64) {
	tr.AddRun([]int64{tNanos}, []float64{v})
}

// sameBits reports whether a and b hold the same state: floats compared
// by their bits (NaN equals NaN, 0 is not -0), pointers by what they
// point at, slices by their elements.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

func same(a, b any) bool { return sameBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

// maxFuzzStream bounds a fuzzed stream: four chunks and a little.
const maxFuzzStream = 4*ChunkLen + 100

// fuzzStream decodes a stream of timestamped values from bytes. A byte's
// low nibble picks the value — NaN, ±Inf, one of four tied values, a
// burst of bulk samples that crosses chunks, or a value built from the
// byte and the next — and its high bits the step to the next timestamp:
// none (a repeated timestamp), back by half a window (a sample behind the
// open window), forward by a nanosecond, a window or several, or a jump
// to either end of int64 time. The stream starts before 0, so its first
// windows are negative ones.
func fuzzStream(data []byte, bulk uint16, width int64) ([]int64, []float64) {
	var ts []int64
	var vs []float64
	t := -3*width - 7
	for i, b := range data {
		if len(vs) >= maxFuzzStream {
			break
		}
		var v float64
		switch b & 15 {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		case 3, 4:
			v = float64(b >> 6)
		case 5:
			rng := rand.New(rand.NewSource(int64(b)))
			for range min(int(bulk)%(3*ChunkLen), maxFuzzStream-len(vs)) {
				ts = append(ts, t)
				vs = append(vs, math.Round(rng.NormFloat64()*400+300)/10)
				t += 1 + width/7
			}
			continue
		default:
			v = float64(int16(uint16(b)<<8|uint16(data[(i+1)%len(data)]))) / 10
		}
		ts = append(ts, t)
		vs = append(vs, v)
		switch b >> 4 & 7 {
		case 0:
		case 1:
			t -= width/2 + 1
		case 2:
			t++
		case 3:
			t += width
		case 4:
			t += 5*width + 3
		case 5:
			if b&0x80 != 0 {
				t = math.MaxInt64 - int64(b&15)
			} else {
				t = math.MinInt64 + int64(b&15)
			}
		default:
			t += width/3 + 1
		}
	}
	return ts, vs
}

// runLens cuts n samples into runs whose lengths the cut bytes give in
// turn: a byte below 200 is a run of that many (0 an empty run, taken
// only on the first pass over the bytes), one from 200 up a long run of
// up to 11 000. No cut bytes is one run of everything.
func runLens(n int, cuts []byte) []int {
	if len(cuts) == 0 {
		return []int{n}
	}
	var lens []int
	for i, left := 0, n; left > 0; i++ {
		c := int(cuts[i%len(cuts)])
		if c >= 200 {
			c = (c - 199) * 200
		}
		if c == 0 && i >= len(cuts) {
			c = 1
		}
		c = min(c, left)
		lens = append(lens, c)
		left -= c
	}
	return lens
}

// tailOf is what a Series' last append can have changed: its length, its
// chunk count and its last chunk.
func tailOf(s *Series) []any {
	return []any{s.n, len(s.chunks), s.chunks[max(len(s.chunks)-1, 0):]}
}

// fillInPlace stores t[i], v[i] in order through Grow and Commit, a tail
// chunk's room at a time, writing the columns in place as a decoder does.
func fillInPlace(s *Series, t []int64, v []float64) {
	for len(v) > 0 {
		gv, _ := s.Grow()
		n := copy(gv, v)
		s.Commit(n, t[:n])
		t, v = t[n:], v[n:]
	}
}

// FuzzRunMatchesSingles checks every run body against the per-sample
// reference: one stream, cut into random runs, must leave each
// aggregator's state and snapshot, and each Series' chunks, equal bit for
// bit to folding or appending the samples one at a time — after every run.
func FuzzRunMatchesSingles(f *testing.F) {
	f.Add([]byte{0x36, 0x47, 0x21, 0x13, 0x00, 0x98, 0x1c, 0x6e, 0x45, 0x31, 0x07}, []byte{1, 3, 0, 2}, uint16(0), uint8(9))
	f.Add([]byte{0x25, 0x16, 0x35, 0x1b, 0x55, 0x17}, []byte{7, 210, 0, 199}, uint16(9000), uint8(200))
	f.Add([]byte{0x06, 0x07, 0x08, 0x09, 0x0a}, []byte{}, uint16(0), uint8(0))
	f.Add([]byte{0xd7, 0x16, 0x58, 0x19, 0xa5, 0x06}, []byte{2}, uint16(4097), uint8(1))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, bulk uint16, w uint8) {
		width := 1 + int64(w)
		ts, vs := fuzzStream(stream, bulk, width)
		var wel, welRef Welford
		p2, p2Ref := NewP2Quantile(0.3), NewP2Quantile(0.3)
		var tr, trRef Trapezoid
		// On the grid of tenths up to 3276.7, fed the stream's levels:
		// each finite value's magnitude rounded to a tenth, 0 for the rest.
		ss, ssRef := NewStreamSummary(NewLevels(10, 32767)), NewStreamSummary(NewLevels(10, 32767))
		gk, gv := make([]uint32, len(vs)), make([]float64, len(vs))
		for i, v := range vs {
			if math.Abs(v) <= 3276.7 {
				gk[i] = uint32(math.Round(math.Abs(v) * 10))
			}
			gv[i] = float64(gk[i]) / 10
		}
		var es, esRef ExactSummary
		wd, wdRef := NewWindowed(width, nil), NewWindowed(width, nil)
		cols, colsRef := NewSeries(), NewSeries()
		arith, arithRef := NewSeries(), NewSeries()

		at := 0
		for i, n := range runLens(len(vs), cuts) {
			rt, rv := ts[at:at+n], vs[at:at+n]
			wel.ObserveRun(rv)
			p2.ObserveRun(rv)
			tr.AddRun(rt, rv)
			ss.AddLevelRun(rt, gv[at:at+n], gk[at:at+n])
			es.AddRun(rt, rv)
			wd.AddRun(rt, rv)
			fillInPlace(cols, rt, rv)
			var first int64
			if n > 0 {
				first = rt[0]
			}
			step := int64(i%5) - 1
			arith.AppendRun(first, step, rv)
			for j, v := range rv {
				welRef.observeOne(v)
				p2Ref.observeOne(v)
				trRef.addOne(rt[j], v)
				ssRef.addOne(rt[j], gv[at+j], gk[at+j:at+j+1])
				esRef.addOne(rt[j], v)
				wdRef.addOne(rt[j], v)
				colsRef.Append(rt[j], v)
				arithRef.Append(first+int64(j)*step, v)
			}
			at += n

			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"Welford", wel, welRef},
				{"P2Quantile", p2, p2Ref},
				{"P2Quantile.Value", p2.Value(), p2Ref.Value()},
				{"Trapezoid", tr, trRef},
				{"StreamSummary", ss, ssRef},
				{"StreamSummary.Snapshot", ss.Snapshot(gv[:at]), ssRef.Snapshot(gv[:at])},
				{"ExactSummary", es.state(), esRef.state()},
				{"ExactSummary.Snapshot", es.Snapshot(), esRef.Snapshot()},
				// Windowed's flushed buckets are compared once, at the end.
				{"Windowed open bucket", []any{wd.curIdx, wd.cur.state(), len(wd.done)},
					[]any{wdRef.curIdx, wdRef.cur.state(), len(wdRef.done)}},
				// The Series' chunks before the last are compared at the end.
				{"Series.Grow/Commit", tailOf(cols), tailOf(colsRef)},
				{"Series.AppendRun", tailOf(arith), tailOf(arithRef)},
			} {
				if !same(c.got, c.want) {
					t.Fatalf("after run %d (%d of %d samples): %s\nrun:       %+v\nsingles:   %+v", i, at, len(vs), c.name, c.got, c.want)
				}
			}
		}
		if got, want := wd.Buckets(), wdRef.Buckets(); !same(got, want) {
			i := 0
			for i < min(len(got), len(want)) && same(got[i], want[i]) {
				i++
			}
			t.Fatalf("Windowed: %d buckets from runs, %d from singles; bucket %d differs:\nruns:    %+v\nsingles: %+v",
				len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
		}
		if !same(cols, colsRef) || !same(arith, arithRef) {
			t.Fatal("Series: the chunks of runs and of single appends differ")
		}
	})
}

// TestRunBodiesDoNotAllocate: a fold of a chunk allocates nothing,
// whether one estimator, a stream summary whose level counts have room or
// an exact summary whose kept memory or counts have room does it, and
// neither does counting or sorting its quantiles once the sort's copy is
// recycled.
func TestRunBodiesDoNotAllocate(t *testing.T) {
	ts, vs := synth(ChunkLen)
	e := NewP2Quantile(0.5)
	grid := noisy(ChunkLen)
	ks := tenths(grid)
	ss := NewStreamSummary(NewLevels(10, 60000))
	ss.AddLevelRun(ts, grid, ks) // grows the counts to the highest level
	var es ExactSummary
	es.AddRun(ts, vs) // grows the memory each Reset keeps
	esGrid := NewExactSummary(NewLevels(10, 60000))
	esGrid.AddLevelRun(ts, grid, ks)
	for _, c := range []struct {
		name string
		fold func()
	}{
		{"P2Quantile.ObserveRun", func() { e.ObserveRun(vs) }},
		{"StreamSummary.AddLevelRun", func() { ss.AddLevelRun(ts, grid, ks) }},
		{"StreamSummary.Snapshot", func() { ss.Snapshot() }},
		{"ExactSummary.AddRun", func() { es.Reset(); es.AddRun(ts, vs) }},
		{"ExactSummary.Snapshot", func() { es.Snapshot() }},
		{"ExactSummary.AddLevelRun on a grid", func() { esGrid.Reset(); esGrid.AddLevelRun(ts, grid, ks) }},
		{"ExactSummary.Snapshot on a grid", func() { esGrid.Snapshot() }},
	} {
		if n := testing.AllocsPerRun(20, c.fold); n != 0 {
			t.Errorf("%s of %d samples: %v allocations, want 0", c.name, len(vs), n)
		}
	}
}
