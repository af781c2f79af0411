// Package samples is the streaming sample pipeline under BatteryLab's
// capture path: chunked columnar storage for high-rate telemetry and
// O(1)-per-sample online aggregators.
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
//     granularity for chunked binary trace encoding (internal/trace v2).
//
// # Streaming aggregators
//
// Aggregator implementations consume one (timestamp, value) pair at a
// time in O(1):
//
//   - Welford: numerically stable running mean/variance plus min/max.
//     Agrees with the two-pass batch computation to ~1e-12 relative
//     error (the property tests in this package pin 1e-9).
//   - P2Quantile: the P² algorithm of Jain & Chlamtac (1985). Five
//     markers track the target quantile without storing samples. Exact
//     for n ≤ 5; beyond that the estimate is approximate, with error
//     that shrinks as the sample grows. The property tests pin the
//     documented bound |est − exact| ≤ 0.05·(max−min) for n ≥ 1000
//     on uniform, normal and bimodal inputs; typical error on smooth
//     distributions is well under 1% of the sample range. Caveat: a
//     quantile that falls inside a probability gap (e.g. the median of
//     an exactly 50/50 bimodal mixture) is ill-conditioned for any
//     constant-memory estimator — the estimate may land in either
//     mode; the tested bounds assume the quantile is interior to a
//     mode. For exact quantiles, sort the sample (stats.Quantile).
//   - Trapezoid: running trapezoidal time integration (unit·seconds),
//     bit-identical to the batch loop it replaces because it
//     accumulates the same terms in the same order.
//
// StreamSummary bundles all of the above so a capture loop feeds one
// aggregator and observers read a LiveSummary snapshot mid-run instead
// of waiting for teardown.
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
	var c *chunk
	if len(s.chunks) > 0 {
		c = s.chunks[len(s.chunks)-1]
	}
	if c == nil || len(c.t) == ChunkLen {
		c = &chunk{
			t: make([]int64, 0, ChunkLen),
			v: make([]float64, 0, ChunkLen),
		}
		s.chunks = append(s.chunks, c)
	}
	c.t = append(c.t, tNanos)
	c.v = append(c.v, v)
	s.n++
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

// Chunks walks the storage chunk by chunk, handing fn each chunk's
// parallel timestamp and value columns (ChunkLen entries, fewer in the
// last) until it returns false. The columns are the series' own memory:
// read-only.
func (s *Series) Chunks(fn func(t []int64, v []float64) bool) {
	for _, c := range s.chunks {
		if !fn(c.t, c.v) {
			return
		}
	}
}
