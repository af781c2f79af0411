// Package trace holds timestamped measurement series: the current traces
// produced by the power monitor, CPU utilization traces from device and
// controller, and network byte counters. A Series is what an experiment
// stores in its job workspace and what the evaluation harness reduces to
// CDFs and energy figures.
//
// Since the streaming sample pipeline landed, a Series is backed by the
// chunked columnar store of internal/samples (appends never copy prior
// samples). A series on a grid (NewGridSeries: the Monsoon's 0.1 mA
// readings) holds levels only, 4 bytes a sample, and a chunk sampled at a
// steady period stores its first offset and the period, so a capture is
// what its ADC made (AppendLevels); a float appended to it is refused. A
// Series keeps a streaming summary — Welford moments, trapezoid integral
// and, on a grid, level counts, which count the stored levels — that is
// folded when it is read: Live,
// Summary, IntegralSeconds and EnergyMAH fold the samples appended since
// the previous read, in order and a chunk's stretch per call, so each
// sample is folded once and every figure is bit for bit that of folding
// at every append. Its quantiles are exact, by one of two rules: a walk
// of the level counts of a series on its grid, or a sorted copy of the
// stored values of any other. A trace nobody reads a summary of (a
// decoded one whose energy the stored summary already gave) folds
// nothing.
// Series persist to disk in the binary trace format of binary.go, and
// export as CSV (WriteCSV, the v1 text format). WriteBinary writes
// version 3: a steady sampling period costs a chunk two timestamps, and a
// grid series writes its levels' deltas, about a byte a sample of a
// Monsoon capture; DecodeBinary writes such a trace back into
// a grid series of the same grid, level for level.
//
// The binary format has a single body, the column codec of binary.go:
// an append-style encoder over plain offset/value columns and a run
// decoder over a byte slice that fills such columns a chunk per call,
// both for versions 2 and 3. WriteBinary, EncodeBinary, ReadBinary and
// DecodeBinary are its callers for a Series; AppendBinary, DecodeHeader
// and Header.Decoder expose it to code that folds or streams samples
// without building one (internal/analytics, the live sample frames of
// internal/api, which stay version 2).
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"batterylab/internal/samples"
	"batterylab/internal/stats"
)

// Sample is one timestamped measurement.
type Sample struct {
	T time.Time
	V float64
}

// Series is an append-only time series of samples with a name and a unit
// (for example "current" / "mA"). Samples live in fixed-size columnar
// chunks (timestamps as nanosecond offsets from the first sample); the
// streaming summary folds them when it is read, so a capture read
// between appends (a live view) has folded most of its samples by the
// time it stops. The zero value is not usable; construct with NewSeries.
// Appends are not safe for concurrent use with anything else; the
// capture models that share one (the Monsoon) serialize access with
// their own locks. Reads may run concurrently with each other.
type Series struct {
	name string
	unit string

	epoch    time.Time // first sample's timestamp
	hasEpoch bool
	lastOff  int64 // last sample's offset from epoch, nanoseconds

	data *samples.Series
	// agg is the summary of the first folded samples; a read folds the
	// rest into it under qmu. levels are its level counts, nil off any
	// grid.
	agg    *samples.StreamSummary
	levels *samples.Levels
	qmu    sync.Mutex
	folded int
	// cols holds the value columns a read off the grid sorts a copy of,
	// kept so that such a read allocates nothing else.
	cols [][]float64
}

// NewSeries returns an empty series.
func NewSeries(name, unit string) *Series {
	return newSeries(name, unit, samples.NewSeries(), nil)
}

// NewGridSeries returns an empty series of levels of the grid k/scale,
// 0 ≤ k ≤ max, as an instrument that rounds its readings makes them: it
// holds levels only, which enter by AppendLevels, its summary counts them
// (samples.Levels), so Live's quantiles are a walk of the counts, and
// WriteBinary writes them as levels. A float appended to it is refused.
// scale and max must lie within 1..2²⁰, the grids the binary format
// holds; it panics on any other.
func NewGridSeries(name, unit string, scale, max int) *Series {
	if scale < 1 || scale > maxGrid || max < 1 || max > maxGrid {
		panic(fmt.Sprintf("trace: grid %d/%d outside 1..%d", scale, max, maxGrid))
	}
	return newSeries(name, unit, samples.NewGridSeries(float64(scale), max), samples.NewLevels(float64(scale), max))
}

func newSeries(name, unit string, data *samples.Series, levels *samples.Levels) *Series {
	return &Series{
		name:   name,
		unit:   unit,
		data:   data,
		agg:    samples.NewStreamSummary(levels),
		levels: levels,
	}
}

// Name reports the series name.
func (s *Series) Name() string { return s.name }

// Unit reports the measurement unit.
func (s *Series) Unit() string { return s.unit }

// Append adds a sample. Timestamps must be non-decreasing; out-of-order
// appends return an error so recorder bugs surface immediately. It is a
// run of one.
func (s *Series) Append(t time.Time, v float64) error {
	return s.AppendRun(t, 0, []float64{v})
}

// AppendRun adds a run of samples taken every step from first: vs[i] at
// first + i·step. It stores exactly what Append would for each sample in
// turn, but checks the order once, for the run's first sample, and
// derives the other offsets by integer addition. A negative step is out
// of order. A series on a grid takes levels (AppendLevels): it refuses
// floats, storing none of the run.
func (s *Series) AppendRun(first time.Time, step time.Duration, vs []float64) error {
	if scale, _ := s.Grid(); scale > 0 {
		return fmt.Errorf("trace: %s holds levels of the grid k/%d: a float is refused", s.name, scale)
	}
	if len(vs) == 0 {
		return nil
	}
	off, err := s.runOffset(first, step)
	if err != nil {
		return err
	}
	s.data.AppendRun(off, int64(step), vs)
	s.lastOff = s.data.T(s.data.Len() - 1)
	return nil
}

// AppendLevels is AppendRun of the values float64(ks[i])/scale on the
// series' grid, for an instrument that makes its readings as levels (the
// Monsoon's ADC): it stores them as they are, with no rounding and no
// check but that each is at most the grid's max. It panics on a level
// above it, and on a series declared on no grid (NewSeries).
func (s *Series) AppendLevels(first time.Time, step time.Duration, ks []uint32) error {
	if len(ks) == 0 {
		return nil
	}
	off, err := s.runOffset(first, step)
	if err != nil {
		return err
	}
	s.data.AppendLevels(off, int64(step), ks)
	s.lastOff = s.data.T(s.data.Len() - 1)
	return nil
}

// runOffset checks a run taken every step from first against the samples
// stored and returns its first offset.
func (s *Series) runOffset(first time.Time, step time.Duration) (int64, error) {
	if step < 0 {
		return 0, fmt.Errorf("trace: run of samples with negative step %v", step)
	}
	if !s.hasEpoch {
		s.epoch = first
		s.hasEpoch = true
	}
	off := first.Sub(s.epoch).Nanoseconds()
	if s.data.Len() > 0 && off < s.lastOff {
		return 0, fmt.Errorf("trace: out-of-order sample at %v (last %v)", first, s.epoch.Add(time.Duration(s.lastOff)))
	}
	return off, nil
}

// MustAppend is Append for recorders that already guarantee ordering.
func (s *Series) MustAppend(t time.Time, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len reports the number of samples.
func (s *Series) Len() int { return s.data.Len() }

// At returns the i-th sample.
func (s *Series) At(i int) Sample {
	off, v := s.data.At(i)
	return Sample{T: s.epoch.Add(time.Duration(off)), V: v}
}

// Iter walks the samples in order until fn returns false, without the
// per-index chunk arithmetic of At.
func (s *Series) Iter(fn func(Sample) bool) {
	s.data.Iter(func(off int64, v float64) bool {
		return fn(Sample{T: s.epoch.Add(time.Duration(off)), V: v})
	})
}

// Samples exposes the underlying chunked sample store (timestamps are
// nanosecond offsets from the first sample). Read-only: appending to it
// directly would bypass the ordering check and the streaming summary.
func (s *Series) Samples() *samples.Series { return s.data }

// Duration reports the time spanned by the series.
func (s *Series) Duration() time.Duration {
	if s.data.Len() < 2 {
		return 0
	}
	return time.Duration(s.lastOff)
}

// Summary reduces the series to summary statistics: its Live summary, at
// any length. Every field is exact.
func (s *Series) Summary() stats.Summary { return stats.FromLive(s.Live()) }

// Live reports the summary of the series so far: running
// mean/std/min/max, the time integral and exact P50/P95 (stats.Quantile's
// of the values, bit for bit). Safe to read between appends; it is what
// session observers receive alongside raw samples and what a finished
// capture stores. It costs the fold of the samples appended since the
// previous read, each sample folded once over all reads, and the
// quantiles: a walk of the level counts of a series on its grid, or a
// sorted copy of every stored value of any other, which leaves the
// storage as it is.
func (s *Series) Live() samples.LiveSummary {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.fold()
	s.cols = s.cols[:0]
	if !s.levels.On() { // the counts may not answer: the values will
		s.data.Stored(0, func(c samples.Chunk) bool {
			v := c.V
			if v == nil {
				// Levels whose counts turned off, which only a count past
				// 2³¹ samples does: a column of their values, for this read.
				v = c.Values(make([]float64, c.Len()))
			}
			s.cols = append(s.cols, v)
			return true
		})
	}
	return s.agg.Snapshot(s.cols...)
}

// Grid reports the grid the series was declared on (NewGridSeries):
// scale and max, or 0 and 0 for none.
func (s *Series) Grid() (scale, max int) {
	sc, mx := s.data.Grid()
	return int(sc), mx
}

// fold folds the samples appended since the previous read into the
// summary. The caller holds qmu.
func (s *Series) fold() {
	s.data.Columns(s.folded, func(c samples.Chunk, t []int64, v []float64) bool {
		s.agg.AddLevelRun(t, v, c.K)
		return true
	})
	s.folded = s.data.Len()
}

// CDF builds the empirical CDF of the series values.
func (s *Series) CDF() (*stats.CDF, error) { return stats.NewCDFSeries(s.data) }

// IntegralSeconds reports the series' integral over time using the
// trapezoid rule, yielding unit·seconds (for a mA series:
// milliamp-seconds). It is the streaming summary's, folded as Live folds
// it; it reads no quantile.
func (s *Series) IntegralSeconds() float64 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.fold()
	return s.agg.IntegralSeconds()
}

// EnergyMAH interprets the series as a current trace in mA and returns
// the charge drawn in milliamp-hours — the unit of Fig. 3 and Fig. 6.
func (s *Series) EnergyMAH() float64 {
	return s.IntegralSeconds() / 3600
}

// MeanDt reports the average sampling interval.
func (s *Series) MeanDt() time.Duration {
	if s.data.Len() < 2 {
		return 0
	}
	return s.Duration() / time.Duration(s.data.Len()-1)
}

// Window returns the sub-series with timestamps in [from, to).
func (s *Series) Window(from, to time.Time) *Series {
	out := NewSeries(s.name, s.unit)
	s.Iter(func(smp Sample) bool {
		if !smp.T.Before(from) && smp.T.Before(to) {
			out.MustAppend(smp.T, smp.V)
		}
		return true
	})
	return out
}

// WriteCSV emits "elapsed_seconds,value" rows with a header, the format
// the access server stores in job workspaces (mirroring the Monsoon
// Python library's CSV export). Every number is printed with six
// decimals, byte for byte what strconv's 'f', 6 formatting gives — files
// written since the first version of this package hash the same. The
// header goes through encoding/csv because a series name may need
// quoting; a number never does, so each row is built in one reused
// buffer.
func (s *Series) WriteCSV(w io.Writer) error {
	growFor(w, 64+24*s.Len()) // a capture's row, "33.499800,345.600000\n", is 20 to 22 bytes
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"elapsed_s", s.name + "_" + s.unit}); err != nil {
		return err
	}
	cw.Flush() // into bw, ahead of the rows
	row := make([]byte, 0, 64)
	s.data.Iter(func(off int64, v float64) bool {
		row = appendFixed6(row[:0], time.Duration(off).Seconds())
		row = append(row, ',')
		row = appendFixed6(row, v)
		row = append(row, '\n')
		_, err := bw.Write(row)
		return err == nil
	})
	return bw.Flush() // reports the first failed write, the header's included
}

// growFor tells a destination that buffers in memory (a bytes.Buffer, a
// strings.Builder) about how much is coming, so a multi-megabyte artifact
// is allocated once instead of grown and copied through every doubling.
func growFor(w io.Writer, n int) {
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(n)
	}
}

// appendFixed6 is strconv.AppendFloat(dst, v, 'f', 6, 64), byte for byte,
// without the multiprecision arithmetic fixed-precision formatting always
// does. When r = round(v·1e6) divides back to exactly v, v is the double
// nearest r/1e6; below 2³¹ half an ulp is under 1.2e-7, so r/1e6 is also
// the six-decimal number nearest to v, and the correctly rounded digits
// are the integer r's with the point six from the right. Every 0.1 mA
// reading and every 200 µs offset of a Monsoon trace ends there — as does
// any v whose shortest round-tripping decimal has at most six places
// (v·1e6 is then within half a unit of that decimal's digits). Anything
// else — a seventh decimal, large magnitudes, NaN, ±Inf — takes the exact
// call.
func appendFixed6(dst []byte, v float64) []byte {
	if r := math.RoundToEven(v * 1e6); math.Abs(v) < 1<<31 && r/1e6 == v {
		if math.Signbit(v) { // -0 included: it prints as -0.000000
			dst = append(dst, '-')
		}
		u := uint64(math.Abs(r)) // below 2³¹·1e6 < 2⁵³: exact
		dst = strconv.AppendUint(dst, u/1e6, 10)
		f := u % 1e6
		return append(dst, '.',
			byte('0'+f/100000), byte('0'+f/10000%10), byte('0'+f/1000%10),
			byte('0'+f/100%10), byte('0'+f/10%10), byte('0'+f%10))
	}
	return strconv.AppendFloat(dst, v, 'f', 6, 64)
}
