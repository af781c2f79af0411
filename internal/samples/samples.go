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
// (4096) entries: one int64 timestamp column and one float64 value
// column per chunk, 64 KiB total. 4096 was chosen so that
//
//   - a chunk's two columns together fit comfortably in the L2 cache of
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
//   - Levels: counts of values on a grid k/scale (a Monsoon reading is
//     on the 0.1 mA grid of its ADC), one increment a value, from which
//     quantiles are exact order statistics. A value off the grid turns
//     the counts off, and the quantiles come from a sorted copy of the
//     values instead. GridLevel is the one rule of what lies on a grid;
//     the binary trace encoder of internal/trace stores such values as
//     their levels.
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
// Levels, so a capture loop feeds one aggregator and observers read a
// LiveSummary snapshot mid-run instead of waiting for teardown. Its P50
// and P95 are exact at every read.
//
// # Exact quantiles
//
// Every exact quantile, the order statistics QuantileSorted interpolates
// (stats.Quantile's answer), comes from one of two rules:
//
//   - Level counts: values on a declared grid are counted (Levels), and
//     the quantiles are a walk of the counts. A capture, a decoded grid
//     trace, and the analytics buckets and rollup of either are counted.
//   - A sorted copy: any other values are copied, NaN left out, the
//     copy is sorted a column at a time with −0 before +0, and the ranks
//     QuantileSorted interpolates between are found across the sorted
//     columns. A Series' storage is copied into recycled memory and never
//     reordered.
//
// ExactSummary is a StreamSummary for a sample held nowhere else: on its
// grid it keeps only the counts, off it the values, which are its sorted
// rule's copy, and a value that leaves the grid turns the counts into
// kept values first. Windowed summarizes each fixed-width time bucket of
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

// ChunkLen is the number of samples per columnar chunk. See the package
// comment for why 4096.
const ChunkLen = 4096

// chunk is one columnar block: parallel timestamp and value columns.
type chunk struct {
	t []int64 // nanoseconds, caller-defined epoch
	v []float64
}

// Series is a chunked, append-only columnar sample store. The zero
// value is an empty, usable series.
type Series struct {
	chunks []*chunk
	n      int
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Len reports the number of samples.
func (s *Series) Len() int { return s.n }

// Append adds one sample. Amortized O(1): a full chunk is sealed and a
// fresh one allocated; prior samples are never copied.
func (s *Series) Append(tNanos int64, v float64) {
	c := s.tail()
	c.t = append(c.t, tNanos)
	c.v = append(c.v, v)
	s.n++
}

// AppendRun adds a run of samples taken every step from first: vs[i] at
// first + i·step, the timestamp found by adding step to the previous
// one. It stores what Append would for each in turn.
func (s *Series) AppendRun(first, step int64, vs []float64) {
	for len(vs) > 0 {
		c := s.tail()
		n := min(ChunkLen-len(c.v), len(vs))
		ts := c.t[len(c.t) : len(c.t)+n]
		for i := range ts {
			ts[i] = first
			first += step
		}
		c.t = c.t[:len(c.t)+n]
		c.v = append(c.v, vs[:n]...)
		s.n += n
		vs = vs[n:]
	}
}

// Grow returns the free columns of the tail chunk, sealing a full one
// first: room for 1 to ChunkLen samples, for a caller that writes them in
// place (a decoder) and then stores them with Commit. A series filled a
// whole ChunkLen run at a time from empty gets a whole run's room every
// time.
func (s *Series) Grow() (t []int64, v []float64) {
	c := s.tail()
	return c.t[len(c.t):ChunkLen], c.v[len(c.v):ChunkLen]
}

// Commit stores the first n samples written into the columns Grow
// returned: what Append would store for each in turn.
func (s *Series) Commit(n int) {
	c := s.chunks[len(s.chunks)-1]
	c.t, c.v = c.t[:len(c.t)+n], c.v[:len(c.v)+n]
	s.n += n
}

// tail returns the chunk the next sample goes in, sealing a full one.
func (s *Series) tail() *chunk {
	if k := len(s.chunks); k > 0 && len(s.chunks[k-1].t) < ChunkLen {
		return s.chunks[k-1]
	}
	c := &chunk{
		t: make([]int64, 0, ChunkLen),
		v: make([]float64, 0, ChunkLen),
	}
	s.chunks = append(s.chunks, c)
	return c
}

// At returns the i-th sample's timestamp and value.
func (s *Series) At(i int) (tNanos int64, v float64) {
	c := s.chunks[i/ChunkLen]
	j := i % ChunkLen
	return c.t[j], c.v[j]
}

// T returns the i-th sample's timestamp.
func (s *Series) T(i int) int64 {
	return s.chunks[i/ChunkLen].t[i%ChunkLen]
}

// Iter walks the samples in order, chunk by chunk, calling fn until it
// returns false. It avoids At's per-index chunk arithmetic.
func (s *Series) Iter(fn func(tNanos int64, v float64) bool) {
	for _, c := range s.chunks {
		for i, t := range c.t {
			if !fn(t, c.v[i]) {
				return
			}
		}
	}
}

// Chunks walks the storage from sample from on, chunk by chunk, handing
// fn each chunk's parallel timestamp and value columns (ChunkLen entries,
// fewer in the last, and the first cut to start at from) until it
// returns false. The columns are the series' own memory: read-only.
func (s *Series) Chunks(from int, fn func(t []int64, v []float64) bool) {
	if from >= s.n {
		return
	}
	for i, c := range s.chunks[from/ChunkLen:] {
		t, v := c.t, c.v
		if i == 0 {
			t, v = t[from%ChunkLen:], v[from%ChunkLen:]
		}
		if !fn(t, v) {
			return
		}
	}
}
