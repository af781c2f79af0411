package samples

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// nonNaN copies the values of cols that are not NaN.
func nonNaN(cols [][]float64) []float64 {
	var vs []float64
	for _, c := range cols {
		for _, v := range c {
			if !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// totalOrderQuantiles is the sorted rule's reference: the non-NaN values
// copied and sorted in the total order of IEEE 754, so −0 before +0, and
// QuantileSorted read off them.
func totalOrderQuantiles(ps []float64, cols [][]float64) []float64 {
	vs := nonNaN(cols)
	// The total order of IEEE 754: flipping the bits of a negative
	// float's word and the sign of a positive one's sorts the words as
	// unsigned integers.
	key := func(v float64) uint64 {
		b := math.Float64bits(v)
		if b>>63 != 0 {
			return ^b
		}
		return b | 1<<63
	}
	slices.SortFunc(vs, func(a, b float64) int {
		ka, kb := key(a), key(b)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	q := make([]float64, len(ps))
	for i, p := range ps {
		q[i] = math.NaN()
		if len(vs) > 0 {
			q[i] = QuantileSorted(vs, p)
		}
	}
	return q
}

// statsQuantiles is stats.Quantile of each p: the non-NaN values sorted
// by sort.Float64s, as the batch API does.
func statsQuantiles(ps []float64, cols [][]float64) []float64 {
	vs := nonNaN(cols)
	sort.Float64s(vs)
	q := make([]float64, len(ps))
	for i, p := range ps {
		q[i] = QuantileSorted(vs, p)
	}
	return q
}

// mixesZeros reports whether cols hold both a +0 and a −0.
func mixesZeros(cols [][]float64) bool {
	var pos, neg bool
	for _, c := range cols {
		for _, v := range c {
			if v == 0 {
				pos, neg = pos || !math.Signbit(v), neg || math.Signbit(v)
			}
		}
	}
	return pos && neg
}

// checkSorted holds the sorted rule over a copy of cols to the
// total-order reference by bits, and to stats.Quantile's answer too where
// zeros of both signs do not meet; the columns must come back as they
// went in. An ExactSummary with no grid, which sorts its own copy in
// place, must snapshot the same P50 and P95.
func checkSorted(t *testing.T, ps []float64, cols [][]float64) {
	t.Helper()
	var w Welford
	before := make([][]float64, len(cols))
	for i, c := range cols {
		w.ObserveRun(c)
		before[i] = slices.Clone(c)
	}
	got := make([]float64, len(ps))
	copiedQuantiles(got, ps, cols...)
	want := totalOrderQuantiles(ps, cols)
	for i := range ps {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%d values in %d columns, p %v: sorted rule %v (%#x), reference %v (%#x)",
				w.N(), len(cols), ps[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if w.N() > 0 && !mixesZeros(cols) {
		for i, q := range statsQuantiles(ps, cols) {
			if math.Float64bits(got[i]) != math.Float64bits(q) {
				t.Fatalf("%d values, p %v: sorted rule %v, stats.Quantile %v", w.N(), ps[i], got[i], q)
			}
		}
	}
	for i, c := range cols {
		for j := range c {
			if math.Float64bits(c[j]) != math.Float64bits(before[i][j]) {
				t.Fatalf("column %d value %d changed from %v to %v", i, j, before[i][j], c[j])
			}
		}
	}
	var es ExactSummary
	for _, c := range cols {
		es.AddRun(make([]int64, len(c)), c)
	}
	checkP50P95(t, "ExactSummary", es.Snapshot(), cols)
}

// exactValues decodes values from bytes. A byte's low nibble picks the
// value — NaN, ±Inf, ±0, a burst of capture-shaped values, a huge
// outlier, a repeat of the last value, a subnormal, ±MaxFloat64 — or
// builds one from the byte and the next.
func exactValues(data []byte, bulk uint16) []float64 {
	var vs []float64
	for i, b := range data {
		if len(vs) > 1<<16 {
			break
		}
		var v float64
		switch b & 15 {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1 - 2*int(b>>7))
		case 2:
			v = 0
		case 3:
			v = math.Copysign(0, -1)
		case 4:
			rng := rand.New(rand.NewSource(int64(b)))
			for range int(bulk) % 12_000 {
				vs = append(vs, math.Round((160+rng.NormFloat64()*15)*10)/10)
			}
			continue
		case 5:
			v = math.Copysign(1e300, float64(int(b>>7)*2-1))
		case 6:
			v = 1
			if len(vs) > 0 {
				v = vs[len(vs)-1]
			}
		case 7:
			v = math.SmallestNonzeroFloat64 * float64(b>>4)
		case 8:
			v = math.Copysign(math.MaxFloat64, float64(int(b>>7)*2-1))
		default:
			v = float64(int16(uint16(b)<<8|uint16(data[(i+1)%len(data)]))) / 10
		}
		vs = append(vs, v)
	}
	return vs
}

// columns cuts vs into columns of the lengths runLens gives.
func columns(vs []float64, cuts []byte) [][]float64 {
	var cols [][]float64
	for _, n := range runLens(len(vs), cuts) {
		cols = append(cols, vs[:n])
		vs = vs[n:]
	}
	return cols
}

// FuzzExactQuantiles holds the sorted rule to a total-order sort of the
// same values, bit for bit, on any values cut into any columns, and
// checks it leaves the columns alone. Its Levels arm snaps the values to
// a grid of tenths, leaving the ones no snap should reach (NaN, −0,
// negatives, subnormals, infinities and values above the grid's max) as
// they are, counts the levels of the values on the grid, a column's a
// run, and holds the counts to the sorted rule over those values by bits.
// Its summary arm feeds a bucket and a rollup declared on that grid the
// levels of the snapped values and then of the values as they came that
// lie on it, and holds them to a bucket and rollup on no grid fed the
// values, and their P50 and P95 to the sorted rule's.
func FuzzExactQuantiles(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x4a, 0x00, 0x5b, 0x00}, []byte{2, 1}, uint16(0), uint16(0))  // NaN runs
	f.Add([]byte{0x01, 0x81, 0x4a, 0x33, 0x01, 0x81}, []byte{}, uint16(0), uint16(1))      // ±Inf
	f.Add([]byte{0x02, 0x03, 0x03, 0x02, 0x02, 0x03}, []byte{1}, uint16(0), uint16(40000)) // ±0
	f.Add([]byte{0x14, 0x02, 0x03}, []byte{}, uint16(3000), uint16(0))                     // ±0 among many
	f.Add([]byte{0x02, 0x03, 0x9a, 0x02, 0x03}, []byte{}, uint16(0), uint16(1))            // ±0 sorted, p = 0
	// 151 −0 then 150 +0: the median is the last −0.
	f.Add(append(bytes.Repeat([]byte{0x03}, 151), bytes.Repeat([]byte{0x02}, 150)...), []byte{7}, uint16(0), uint16(0))
	f.Add(append(bytes.Repeat([]byte{0x02, 0x03, 0x03}, 150), 0x9a, 0x1c), []byte{}, uint16(0), uint16(0)) // ±0 at the median, many
	f.Add([]byte{0x9a, 0x11, 0x06, 0x06, 0x06, 0x9a, 0x06, 0x9b}, []byte{3}, uint16(0), uint16(0))         // duplicates
	for n := 1; n <= 6; n++ {
		f.Add([]byte{0x9a, 0x13, 0x2c, 0x7d, 0x4e, 0x1f}[:n], []byte{}, uint16(0), uint16(65535))
	}
	f.Add([]byte{0x16, 0x06, 0x06, 0x06}, []byte{}, uint16(0), uint16(0))           // min = max
	f.Add(bytes.Repeat([]byte{0x06}, 300), []byte{200}, uint16(0), uint16(0))       // min = max, many
	f.Add([]byte{0x34, 0x05}, []byte{210, 7}, uint16(10000), uint16(32768))         // one huge outlier
	f.Add([]byte{0x44, 0x85, 0x08}, []byte{}, uint16(9000), uint16(0))              // spans no float64 holds
	f.Add([]byte{0x54, 0x17, 0x27, 0x37}, []byte{0, 255}, uint16(11000), uint16(7)) // subnormals
	f.Add([]byte{0x04}, []byte{9}, uint16(3001), uint16(0))                         // all on the grid
	f.Add([]byte{0x04, 0x04}, []byte{}, uint16(1000), uint16(21846))                // on the grid, p = 1/3
	f.Add([]byte{0x04, 0x85, 0x04}, []byte{5, 40}, uint16(5000), uint16(0))         // off the grid mid-run
	f.Fuzz(func(t *testing.T, data, cuts []byte, bulk, p uint16) {
		ps := []float64{0.5, 0.95}
		if p != 0 {
			ps = append(ps, float64(p-1)/(math.MaxUint16-1))
		}
		vs := exactValues(data, bulk)
		checkSorted(t, ps, columns(vs, cuts))
		checkLevels(t, ps, columns(gridValues(vs), cuts))
		checkGridSummaries(t, append(columns(gridValues(vs), cuts), columns(vs, cuts)...))
	})
}

// gridMax is the Levels arm's top level: 2000.0 at scale 10, below the
// 3276.7 a value built from two bytes reaches.
const gridMax = 20_000

// gridValues snaps the positive normal values up to gridMax tenths to
// the nearest tenth, as the Monsoon's ADC rounds a reading, and leaves
// every other value as it is.
func gridValues(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		if v >= math.SmallestNonzeroFloat64*(1<<52) && v*10 <= gridMax {
			v = float64(int64(v*10+0.5)) / 10
		}
		out[i] = v
	}
	return out
}

// onGridRef reports whether v is a tenth from 0 to gridMax tenths: +0
// included, −0 not.
func onGridRef(v float64) bool {
	k := math.Floor(v*10 + 0.5)
	return k >= 0 && k <= gridMax && k/10 == v && !math.Signbit(v)
}

// tenths returns the levels k of vs on the grid of tenths, float64(k)/10
// giving back each value bit for bit. It panics on a value off the grid.
func tenths(vs []float64) []uint32 {
	ks := make([]uint32, len(vs))
	for i, v := range vs {
		k := math.Floor(v*10 + 0.5)
		if !(k >= 0 && k <= math.MaxUint32 && k/10 == v && !math.Signbit(v)) {
			panic(fmt.Sprintf("%v is off the grid of tenths", v))
		}
		ks[i] = uint32(k)
	}
	return ks
}

// onGrid keeps, of each column of cols, the values that lie on the grid
// of tenths up to gridMax (onGridRef), and returns them with their levels.
func onGrid(cols [][]float64) (vals [][]float64, ks [][]uint32) {
	for _, c := range cols {
		var on []float64
		for _, v := range c {
			if onGridRef(v) {
				on = append(on, v)
			}
		}
		vals, ks = append(vals, on), append(ks, tenths(on))
	}
	return vals, ks
}

// checkLevels counts the levels of the values of cols on the grid
// (onGrid), a column's a run, and holds the counts to the sorted rule
// over those values by bits; the counts stay on. A StreamSummary on those
// levels must snapshot the sorted rule's P50 and P95.
func checkLevels(t *testing.T, ps []float64, cols [][]float64) {
	t.Helper()
	cols, ks := onGrid(cols)
	l := NewLevels(10, gridMax)
	ss := NewStreamSummary(NewLevels(10, gridMax))
	var w Welford
	for i, c := range cols {
		l.ObserveLevels(ks[i])
		ss.AddLevelRun(make([]int64, len(c)), c, ks[i])
		w.ObserveRun(c)
		if !l.On() {
			t.Fatalf("after %d levels: counts off", w.N())
		}
	}
	want := make([]float64, len(ps))
	copiedQuantiles(want, ps, cols...)
	got := make([]float64, len(ps))
	l.Quantiles(got, ps)
	for i := range ps {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%d values on the grid, p %v: counted %v (%#x), sorted %v (%#x)",
				w.N(), ps[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	checkP50P95(t, "StreamSummary", ss.Snapshot(), cols)
}

// checkP50P95 holds a snapshot's P50 and P95 to the sorted rule over cols.
func checkP50P95(t *testing.T, what string, snap LiveSummary, cols [][]float64) {
	t.Helper()
	var want [2]float64
	copiedQuantiles(want[:], []float64{0.5, 0.95}, cols...)
	if math.Float64bits(snap.P50) != math.Float64bits(want[0]) || math.Float64bits(snap.P95) != math.Float64bits(want[1]) {
		t.Fatalf("%s of %d values: P50, P95 %v, %v; sorted %v, %v", what, snap.N, snap.P50, snap.P95, want[0], want[1])
	}
}

// checkGridSummaries feeds the levels of the values of cols on the grid
// (onGrid), a column's a run, to an ExactSummary and to one bucket of a
// Windowed, both declared on the grid of tenths, and the values to a
// twin of each on no grid, and then once more after a Reset and in a
// second bucket: every time, those on the grid end as their twins, which
// keep the values, bit for bit, and answer as the sorted rule over those
// values does. It does so three times, with the counts' ceiling
// (maxCount) at its own, at the levels of the first half of the runs and
// at 0: the counts stay on while the levels fit under it, and the run
// that would take them past it turns them off, which turns what they
// counted into kept values, that run's and every later one's kept too.
func checkGridSummaries(t *testing.T, cols [][]float64) {
	t.Helper()
	cols, ks := onGrid(cols)
	half, total := 0, 0
	for i, k := range ks {
		if i < len(ks)/2 {
			half += len(k)
		}
		total += len(k)
	}
	defer func(c int) { maxCount = c }(maxCount)
	for _, ceiling := range []int{maxCount, half, 0} {
		maxCount = ceiling
		es := NewExactSummary(NewLevels(10, gridMax))
		wd := NewWindowed(1, NewLevels(10, gridMax))
		var esV ExactSummary
		wdV := NewWindowed(1, nil)
		for bucket := range int64(2) {
			es.Reset()
			esV.Reset()
			for i, c := range cols {
				ts := make([]int64, len(c))
				for j := range ts {
					ts[j] = bucket
				}
				es.AddLevelRun(ts, c, ks[i])
				wd.AddLevelRun(ts, c, ks[i])
				esV.AddRun(ts, c)
				wdV.AddRun(ts, c)
			}
			if on, want := es.sum.levels.On(), total <= ceiling; on != want || wd.cur.sum.levels.On() != want {
				t.Fatalf("%d levels, ceiling %d: ExactSummary's counts on %v, Windowed's %v; want %v",
					total, ceiling, on, wd.cur.sum.levels.On(), want)
			}
			if got, want := es.Snapshot(), esV.Snapshot(); !same(got, want) {
				t.Fatalf("ceiling %d: ExactSummary fed levels: %+v, fed values %+v", ceiling, got, want)
			}
			if got, want := wd.Buckets(), wdV.Buckets(); !same(got, want) {
				t.Fatalf("ceiling %d: Windowed fed levels: %+v, fed values %+v", ceiling, got, want)
			}
			checkP50P95(t, "ExactSummary on a grid", es.Snapshot(), cols)
			if b := wd.Buckets(); int64(len(b)) > bucket { // no sample opens no bucket
				checkP50P95(t, "Windowed bucket on a grid", b[bucket].LiveSummary, cols)
			}
		}
	}
}

// TestSelectQuantilesShapes: capture-shaped windows and columns, with NaN
// runs, a trend, steps, heavy ties and skew, each run through both rules:
// sorted as the total-order reference has it, for many quantiles at once
// too, and counted on a grid of tenths as the sorted rule has them once
// snapped to it, by a bare Levels and by a bucket and rollup on that grid
// that then count the levels of the raw values that lie on it.
func TestSelectQuantilesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(n int, f func(i int) float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = f(i)
		}
		return vs
	}
	shapes := map[string][]float64{
		"window": gen(10_000, func(int) float64 { return 150 + rng.NormFloat64()*15 }),
		"column": gen(167_499, func(i int) float64 { return 150 + 40*math.Sin(float64(i)/3000) + rng.NormFloat64()*15 }),
		"nan runs": gen(20_000, func(i int) float64 {
			if i%5000 < 700 {
				return math.NaN()
			}
			return rng.ExpFloat64() * 100
		}),
		"steps":    gen(4000, func(i int) float64 { return float64(100 + 100*(i/2000)) }),
		"adc":      noisy(50_000),
		"outlier":  append(gen(30_000, func(int) float64 { return 160 + rng.NormFloat64() }), 1e12),
		"lognorm":  gen(40_000, func(int) float64 { return math.Exp(rng.NormFloat64() * 30) }),
		"constant": gen(5000, func(int) float64 { return 42.5 }),
	}
	all := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for name, vs := range shapes {
		t.Run(name, func(t *testing.T) {
			checkSorted(t, []float64{0.5, 0.95}, [][]float64{vs})
			checkSorted(t, all, columns(vs, []byte{210, 13, 255}))
			grid := columns(gridValues(vs), []byte{210, 13, 255})
			checkLevels(t, all, grid)
			checkGridSummaries(t, append(grid, vs))
		})
	}
}

// BenchmarkExactQuantiles reports what an exact P50 and P95 of
// capture-shaped values cost a sample by each rule, over a 2 s window at
// 5 kHz (an analytics bucket) and 33 s in storage chunks (a finished
// capture, or a rollup): "levels" counts the values' levels on the
// 0.1 mA grid into counts reset from the previous op, as a bucket on a
// grid does, and walks them; "sorted" copies them into recycled memory, sorts the copy
// and reads it, as a series off any grid does (a bucket or rollup off a
// grid sorts the copy it keeps, in place).
func BenchmarkExactQuantiles(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"window=2s", 10_000}, {"column=33s", 167_499}} {
		vs := noisy(c.n)
		var cols [][]float64
		for i := 0; i < len(vs); i += ChunkLen {
			cols = append(cols, vs[i:min(i+ChunkLen, len(vs))])
		}
		q := make([]float64, 2)
		ps := []float64{0.5, 0.95}
		b.Run("levels,"+c.name, func(b *testing.B) {
			l := NewLevels(10, 60000)
			var ks [][]uint32
			for _, col := range cols {
				ks = append(ks, tenths(col))
			}
			b.ReportAllocs()
			for b.Loop() {
				l.reset()
				for _, k := range ks {
					l.ObserveLevels(k)
				}
				l.Quantiles(q, ps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/sample")
		})
		b.Run("sorted,"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				copiedQuantiles(q, ps, cols...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/sample")
		})
	}
}
