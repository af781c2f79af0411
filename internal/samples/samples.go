// Package samples is the streaming sample pipeline under BatteryLab's
// capture path: chunked columnar storage for high-rate telemetry, online
// aggregators that fold it a run at a time, and exact quantiles of a
// sample held whole.
//
// One Monsoon emits 5 kHz current samples per device; a campaign runs
// many devices concurrently, so a 30-minute sweep across 8 vantage
// points is ~7M samples. The two costs this package removes from that
// path are reallocation (a flat []float64 append copies the whole
// history every time it doubles) and teardown re-scans (batch
// summarize/quantile calls that sort the full trace after capture).
//
// # Chunk size
//
// A Series stores samples in fixed-size columnar chunks of ChunkLen
// (4096) entries, each chunk holding what its samples need and no more:
//
//   - values: a float64 column, or, in a series on a grid
//     (NewGridSeries: the Monsoon's 0.1 mA readings), a uint32 column of
//     levels k, each value being float64(k)/scale bit for bit. One width
//     serves every grid up to 2²⁰ levels. Such a series holds levels
//     only: a float appended to it panics;
//   - offsets: an int64 column, or, while they step evenly (a sampler's
//     ticks), only the first and the step.
//
// So a steady capture chunk is a 16 KiB level column, 4 bytes a sample,
// where one with both columns would take 64 KiB. 4096 was chosen so that
//
//   - a chunk's columns together fit comfortably in the L2 cache of
//     the Raspberry Pi 3B+ controllers the paper deploys (512 KiB),
//     keeping per-chunk scans cache-resident;
//   - append is O(1) amortized with *zero* copying of prior samples —
//     a full chunk is sealed and a new one allocated, so a 1M-sample
//     capture allocates ~256 chunks instead of copying ~2× the trace
//     through geometric slice growth;
//   - at the Monsoon's full 5 kHz rate a chunk spans ~0.8 s, a natural
//     granularity for chunked binary trace encoding (internal/trace v2
//     and v3).
//
// Stored hands a reader the chunks as they are stored; Chunks, for a
// reader of floats, the same samples as two columns, a chunk's own or
// expanded into scratch columns reused from chunk to chunk; Columns, for
// a fold that counts stored levels (StreamSummary.AddLevelRun), both.
//
// # Streaming aggregators
//
// Each aggregator folds a whole run of values (and, where time matters,
// their timestamps) per call — a storage chunk, a decoded chunk, the
// ticks of one clock event — holding its state in locals for the run.
// A run does a value's arithmetic at a time, in order, so any cut of a
// stream into runs gives the same state, bit for bit; folding one value
// is a run of one:
//
//   - Welford: numerically stable running mean/variance plus min/max.
//     Agrees with the two-pass batch computation to ~1e-12 relative
//     error (the property tests in this package pin 1e-9).
//   - Levels: counts of levels k of a grid k/scale (a Monsoon reading is
//     a level of the 0.1 mA grid of its ADC), one increment a level, from
//     which quantiles are exact order statistics. It counts the levels a
//     grid Series stores as they are, with no check (ObserveLevels).
//   - P2Quantile: the P² algorithm of Jain & Chlamtac (1985). Five
//     markers track the target quantile without storing samples. Exact
//     for n ≤ 5; beyond that the estimate is approximate. The property
//     tests pin |est − exact| ≤ 0.05·(max−min) for n ≥ 1000 on
//     stationary uniform, normal and bimodal inputs only: on a capture
//     with phases, whose distribution moves mid-stream, it need not hold
//     (a live P95 once missed it by 3.69× on a 1 kHz browser run). P² is
//     for data that streams and is not kept, and its one user is
//     metrics.Histogram; no capture quantile is a P² estimate.
//   - Trapezoid: running trapezoidal time integration (unit·seconds),
//     bit-identical to the batch loop it replaces because it
//     accumulates the same terms in the same order.
//
// StreamSummary bundles Welford, Trapezoid and, for a stream on a grid,
// Levels, fed each run's levels beside its values (AddLevelRun), so a
// capture loop feeds one aggregator and observers read a
// LiveSummary snapshot mid-run instead of waiting for teardown. Its P50
// and P95 are exact at every read.
//
// # Exact quantiles
//
// Every exact quantile, the order statistics QuantileSorted interpolates
// (stats.Quantile's answer), comes from one of two rules:
//
//   - Level counts: the levels of a declared grid are counted (Levels),
//     and the quantiles are a walk of the counts. A capture, a decoded grid
//     trace, and the analytics buckets and rollup of either are counted.
//   - A sorted copy: any other values are copied, NaN left out, the
//     copy is sorted a column at a time with −0 before +0, and the ranks
//     QuantileSorted interpolates between are found across the sorted
//     columns. A Series' storage is copied into recycled memory and never
//     reordered.
//
// ExactSummary is a StreamSummary for a sample held nowhere else: on a
// grid it keeps only the counts, with none the values, which are its
// sorted rule's copy; counts that could pass 2³¹ turn into kept values
// first. Windowed summarizes each fixed-width time bucket of
// a stream with one, so a bucket's WindowSummary is a LiveSummary and its
// start.
//
// NaN values are invalid measurements (the Monsoon ADC clamps its floor
// at 0 mA and can never produce them); aggregators skip them and count
// them in LiveSummary.NaNs rather than poisoning every statistic.
//
// Series and the aggregators are not safe for concurrent use; callers
// that share them across goroutines (the Monsoon model, sessions)
// serialize access with their own locks.
package samples

import (
	"fmt"
	"sync"
)

// ChunkLen is the number of samples per columnar chunk. See the package
// comment for why 4096.
const ChunkLen = 4096

// chunk is one columnar block. Its values are v, or k on the series'
// grid (the other nil); its offsets are t, or, while t is nil, first +
// i·step. Its form depends on its samples alone: t is nil exactly when
// the offsets step evenly (wrapping as int64 sums do), first and step are
// 0 when t is not nil, and step is 0 below two samples.
type chunk struct {
	t           []int64 // nanoseconds, caller-defined epoch
	first, step int64
	v           []float64
	k           []uint32
}

// len is the chunk's sample count: one of its value columns is empty.
func (c *chunk) len() int { return len(c.v) + len(c.k) }

// off returns sample j's offset.
func (c *chunk) off(j int) int64 {
	if c.t != nil {
		return c.t[j]
	}
	return c.first + int64(j)*c.step
}

// appendOffsets stores the offsets of n more samples, after the chunk's
// own: offs[:n], or with offs nil first + i·step. A steady chunk stays
// steady while they go on stepping evenly, and otherwise writes its
// offset column out once.
func (c *chunk) appendOffsets(offs []int64, first, step int64, n int) {
	if n == 0 {
		return
	}
	if offs != nil {
		first = offs[0]
		if n > 1 {
			step = offs[1] - offs[0]
		}
	}
	have := c.len()
	if c.t == nil {
		f, st := c.first, c.step // the progression with the new offsets
		switch have {
		case 0:
			f, st = first, step
			if n == 1 {
				st = 0
			}
		case 1:
			st = first - f
		}
		steady := first == f+int64(have)*st && (n == 1 || step == st)
		if steady && offs != nil {
			for i := 2; i < n; i++ {
				if offs[i]-offs[i-1] != st {
					steady = false
					break
				}
			}
		}
		if steady {
			c.first, c.step = f, st
			return
		}
		c.t = make([]int64, have, ChunkLen)
		for i := range c.t {
			c.t[i] = c.first + int64(i)*c.step
		}
		c.first, c.step = 0, 0
	}
	if offs != nil {
		c.t = append(c.t, offs[:n]...)
		return
	}
	ts := c.t[have : have+n]
	for i := range ts {
		ts[i] = first
		first += step
	}
	c.t = c.t[:have+n]
}

// Series is a chunked, append-only columnar sample store. The zero
// value is an empty, usable series of floats.
type Series struct {
	chunks []*chunk
	n      int
	// scale and max are the grid k/scale, 0 ≤ k ≤ max, the series was
	// declared on and stores levels of; scale 0 for none.
	scale float64
	max   int
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// NewGridSeries returns an empty series of the grid k/scale, 0 ≤ k ≤ max
// (max below 2³²), which holds levels only: a level k is the value
// float64(k)/scale, bit for bit. Levels enter by AppendLevels, or by Grow
// and Commit; a float appended to it panics.
func NewGridSeries(scale float64, max int) *Series {
	return &Series{scale: scale, max: max}
}

// Grid reports the grid the series was declared on: scale and max, or 0
// and 0 for none.
func (s *Series) Grid() (scale float64, max int) { return s.scale, s.max }

// Len reports the number of samples.
func (s *Series) Len() int { return s.n }

// Append adds one sample: a run of one.
func (s *Series) Append(tNanos int64, v float64) {
	s.AppendRun(tNanos, 0, []float64{v})
}

// AppendRun adds a run of samples taken every step from first: vs[i] at
// first + i·step, the timestamp found by adding step to the previous
// one. It stores what Append would for each in turn. Amortized O(1) a
// sample: a full chunk is sealed and a fresh one allocated; prior samples
// are never copied. It panics on a series on a grid, which takes levels
// (AppendLevels), storing nothing.
func (s *Series) AppendRun(first, step int64, vs []float64) {
	if s.scale > 0 {
		panic(fmt.Sprintf("samples: floats appended to a series of the grid k/%v, which takes levels", s.scale))
	}
	for len(vs) > 0 {
		c := s.tail()
		n := min(ChunkLen-len(c.v), len(vs))
		c.appendOffsets(nil, first, step, n)
		c.v = append(c.v, vs[:n]...)
		s.n += n
		first += int64(n) * step
		vs = vs[n:]
	}
}

// AppendLevels adds a run of samples on the series' grid, taken every
// step from first: level ks[i], the value float64(ks[i])/scale, at first
// + i·step, stored as it is. It panics on a level above max, and on a
// series declared on no grid, storing nothing.
func (s *Series) AppendLevels(first, step int64, ks []uint32) {
	var hi uint32
	for _, k := range ks {
		hi = max(hi, k)
	}
	if s.scale == 0 || int(hi) > s.max {
		panic(fmt.Sprintf("samples: level %d outside the grid 0..%d", hi, s.max))
	}
	for len(ks) > 0 {
		c := s.tail()
		n := min(ChunkLen-len(c.k), len(ks))
		c.appendOffsets(nil, first, step, n)
		c.k = append(c.k, ks[:n]...)
		s.n += n
		first += int64(n) * step
		ks = ks[n:]
	}
}

// Grow returns the free room of the tail chunk's values, sealing a full
// one first: room for 1 to ChunkLen of them, as levels in k on a grid
// or as floats in v (the other nil), for a caller that writes them in
// place (a decoder) and then stores them with Commit or CommitSteady. A
// series filled a whole ChunkLen run at a time from empty gets a whole
// run's room every time.
func (s *Series) Grow() (v []float64, k []uint32) {
	c := s.tail()
	if c.k != nil {
		return nil, c.k[len(c.k):ChunkLen]
	}
	return c.v[len(c.v):ChunkLen], nil
}

// Commit stores the first n values written into the room Grow returned,
// at the offsets offs[:n], which it copies unless they step evenly: what
// Append would store for each in turn.
func (s *Series) Commit(n int, offs []int64) {
	c := s.chunks[len(s.chunks)-1]
	c.appendOffsets(offs, 0, 0, n)
	s.commit(c, n)
}

// CommitSteady is Commit of the offsets first + i·step.
func (s *Series) CommitSteady(n int, first, step int64) {
	c := s.chunks[len(s.chunks)-1]
	c.appendOffsets(nil, first, step, n)
	s.commit(c, n)
}

func (s *Series) commit(c *chunk, n int) {
	if c.k != nil {
		c.k = c.k[:len(c.k)+n]
	} else {
		c.v = c.v[:len(c.v)+n]
	}
	s.n += n
}

// tail returns the chunk the next sample goes in, sealing a full one.
func (s *Series) tail() *chunk {
	if k := len(s.chunks); k > 0 && s.chunks[k-1].len() < ChunkLen {
		return s.chunks[k-1]
	}
	c := new(chunk)
	if s.scale > 0 {
		c.k = make([]uint32, 0, ChunkLen)
	} else {
		c.v = make([]float64, 0, ChunkLen)
	}
	s.chunks = append(s.chunks, c)
	return c
}

// At returns the i-th sample's timestamp and value.
func (s *Series) At(i int) (tNanos int64, v float64) {
	c := s.chunks[i/ChunkLen]
	j := i % ChunkLen
	if c.k != nil {
		return c.off(j), float64(c.k[j]) / s.scale
	}
	return c.off(j), c.v[j]
}

// T returns the i-th sample's timestamp.
func (s *Series) T(i int) int64 {
	return s.chunks[i/ChunkLen].off(i % ChunkLen)
}

// Iter walks the samples in order, chunk by chunk, calling fn until it
// returns false. It avoids At's per-index chunk arithmetic.
func (s *Series) Iter(fn func(tNanos int64, v float64) bool) {
	s.Chunks(0, func(t []int64, v []float64) bool {
		for i, x := range t {
			if !fn(x, v[i]) {
				return false
			}
		}
		return true
	})
}

// Chunk is one chunk of a Series as it is stored, for a reader that
// takes levels as levels or steady offsets as a step (an encoder, a
// count of levels). Its columns are the series' own memory: read-only.
type Chunk struct {
	// T holds the offsets, or is nil when they step evenly: offset i is
	// then First + i·Step.
	T           []int64
	First, Step int64
	// V holds the values of a series off any grid; K, on a grid, the
	// levels: value i is float64(K[i])/Scale. The other is nil.
	V     []float64
	K     []uint32
	Scale float64
}

// Len reports the chunk's sample count.
func (c Chunk) Len() int { return len(c.V) + len(c.K) }

// Offsets returns the offset column: T, or the steady offsets written
// into buf, which must hold Len of them.
func (c Chunk) Offsets(buf []int64) []int64 {
	if c.T != nil {
		return c.T
	}
	buf = buf[:c.Len()]
	o := c.First
	for i := range buf {
		buf[i] = o
		o += c.Step
	}
	return buf
}

// Values returns the value column: V, or the values of the levels
// written into buf, which must hold Len of them.
func (c Chunk) Values(buf []float64) []float64 {
	if c.K == nil {
		return c.V
	}
	buf = buf[:len(c.K)]
	for i, k := range c.K {
		buf[i] = float64(k) / c.Scale
	}
	return buf
}

// Stored walks the storage from sample from on, chunk by chunk, handing
// fn each chunk as it is stored (the first cut to start at from) until it
// returns false.
func (s *Series) Stored(from int, fn func(c Chunk) bool) {
	if from >= s.n {
		return
	}
	for i, c := range s.chunks[from/ChunkLen:] {
		v := Chunk{T: c.t, First: c.first, Step: c.step, V: c.v, K: c.k, Scale: s.scale}
		if cut := from % ChunkLen; i == 0 && cut > 0 {
			v.First += int64(cut) * v.Step
			if v.T != nil {
				v.T = v.T[cut:]
			}
			if v.K != nil {
				v.K = v.K[cut:]
			} else {
				v.V = v.V[cut:]
			}
		}
		if v.Len() == 0 || !fn(v) {
			return
		}
	}
}

// scratch is room to expand one stored chunk into float columns.
type scratch struct {
	t [ChunkLen]int64
	v [ChunkLen]float64
}

// scratches recycles the scratch a walk of float columns expands chunks
// into, so that reading a series again and again allocates for none.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// Chunks walks the storage from sample from on, chunk by chunk, handing
// fn each chunk's offset and value columns (ChunkLen entries, fewer in
// the last, and the first cut to start at from) until it returns false.
// A column is the series' own memory, read-only, or, for steady offsets
// or levels, their expansion into scratch that the next chunk reuses: fn
// must not keep them.
func (s *Series) Chunks(from int, fn func(t []int64, v []float64) bool) {
	s.Columns(from, func(_ Chunk, t []int64, v []float64) bool { return fn(t, v) })
}

// Columns is Chunks handing fn the stored chunk beside its columns, for a
// fold that counts the levels c.K as stored (StreamSummary.AddLevelRun).
func (s *Series) Columns(from int, fn func(c Chunk, t []int64, v []float64) bool) {
	var sc *scratch
	s.Stored(from, func(c Chunk) bool {
		t, v := c.T, c.V
		if t == nil || v == nil {
			if sc == nil {
				sc = scratches.Get().(*scratch)
			}
			t, v = c.Offsets(sc.t[:]), c.Values(sc.v[:])
		}
		return fn(c, t, v)
	})
	if sc != nil {
		scratches.Put(sc)
	}
}
