// Package trace holds timestamped measurement series: the current traces
// produced by the power monitor, CPU utilization traces from device and
// controller, and network byte counters. A Series is what an experiment
// stores in its job workspace and what the evaluation harness reduces to
// CDFs and energy figures.
//
// Since the streaming sample pipeline landed, a Series is backed by the
// chunked columnar store of internal/samples (appends never copy prior
// samples) and maintains a streaming summary online: Summary, Live,
// IntegralSeconds and EnergyMAH are O(1) snapshots of aggregates
// computed while capturing, not teardown re-scans of the full trace.
// Series persist to disk as CSV (WriteCSV/ReadCSV, the v1 text format)
// or the binary trace format of binary.go.
//
// The binary format has a single body, the column codec of binary.go:
// an append-style encoder over plain offset/value columns and a decoder
// over a byte slice that visits (offset, value) pairs. WriteBinary,
// EncodeBinary, ReadBinary and DecodeBinary are its callers for a Series;
// AppendBinary, DecodeHeader and Header.DecodeSamples expose it to code
// that folds or streams samples without building one (internal/analytics,
// the live sample frames of internal/api).
package trace

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
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
// chunks (timestamps as nanosecond offsets from the first sample), and
// every append also feeds a streaming aggregator, so summaries are ready
// the moment capture stops. The zero value is not usable; construct with
// NewSeries. A Series is not safe for concurrent use; the capture models
// that share one (the Monsoon) serialize access with their own locks.
type Series struct {
	name string
	unit string

	epoch    time.Time // first sample's timestamp
	hasEpoch bool
	lastOff  int64 // last sample's offset from epoch, nanoseconds

	data *samples.Series
	agg  *samples.StreamSummary
}

// NewSeries returns an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{
		name: name,
		unit: unit,
		data: samples.NewSeries(),
		agg:  samples.NewStreamSummary(),
	}
}

// Name reports the series name.
func (s *Series) Name() string { return s.name }

// Unit reports the measurement unit.
func (s *Series) Unit() string { return s.unit }

// Append adds a sample. Timestamps must be non-decreasing; out-of-order
// appends return an error so recorder bugs surface immediately.
func (s *Series) Append(t time.Time, v float64) error {
	if !s.hasEpoch {
		s.epoch = t
		s.hasEpoch = true
	}
	off := t.Sub(s.epoch).Nanoseconds()
	if s.data.Len() > 0 && off < s.lastOff {
		return fmt.Errorf("trace: out-of-order sample at %v (last %v)", t, s.epoch.Add(time.Duration(s.lastOff)))
	}
	s.appendOffset(off, v)
	return nil
}

// appendOffset stores a sample already known to be in order, off
// nanoseconds after the epoch.
func (s *Series) appendOffset(off int64, v float64) {
	s.data.Append(off, v)
	s.agg.Add(off, v)
	s.lastOff = off
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

// Values returns a copy of the sample values.
func (s *Series) Values() []float64 { return s.data.Values() }

// Duration reports the time spanned by the series.
func (s *Series) Duration() time.Duration {
	if s.data.Len() < 2 {
		return 0
	}
	return time.Duration(s.lastOff)
}

// Summary reduces the series to summary statistics from the aggregates
// maintained during capture. Mean, Std, Min and Max are exact. For
// series up to one chunk (4096 samples — CPU traces, thinned sweeps)
// the Median is exact too, from one bounded sort; beyond that it is the
// P² streaming estimate (see the internal/samples package comment for
// its error bounds) and Summary is O(1). For an exact median on a large
// series, use CDF or stats.SummarizeSeries.
func (s *Series) Summary() stats.Summary {
	if s.data.Len() <= samples.ChunkLen {
		return stats.SummarizeSeries(s.data)
	}
	return stats.FromLive(s.agg.Snapshot())
}

// Live reports the streaming summary of the capture so far: running
// mean/std/min/max, P50/P95 estimates and the time integral. O(1), safe
// to read between appends, and what session observers receive alongside
// raw samples.
func (s *Series) Live() samples.LiveSummary { return s.agg.Snapshot() }

// CDF builds the empirical CDF of the series values.
func (s *Series) CDF() (*stats.CDF, error) { return stats.NewCDFSeries(s.data) }

// IntegralSeconds reports the series' integral over time using the
// trapezoid rule, yielding unit·seconds (for a mA series:
// milliamp-seconds). Computed online during capture; reading it is O(1).
func (s *Series) IntegralSeconds() float64 {
	return s.agg.Snapshot().IntegralSeconds
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

// Decimate returns a new series keeping every k-th sample, used to thin a
// 5 kHz monitor trace before plotting. k < 1 is treated as 1.
func (s *Series) Decimate(k int) *Series {
	if k < 1 {
		k = 1
	}
	out := NewSeries(s.name, s.unit)
	for i := 0; i < s.data.Len(); i += k {
		smp := s.At(i)
		out.MustAppend(smp.T, smp.V)
	}
	return out
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

// ReadCSV parses a series previously written by WriteCSV. The base time
// for reconstructed timestamps is t0.
func ReadCSV(r io.Reader, name, unit string, t0 time.Time) (*Series, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil { // header
		if err == io.EOF {
			return nil, errors.New("trace: empty CSV")
		}
		return nil, err
	}
	s := NewSeries(name, unit)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if len(row) != 2 {
			return nil, fmt.Errorf("trace: bad row %v", row)
		}
		secs, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, err
		}
		if err := s.Append(t0.Add(time.Duration(secs*float64(time.Second))), v); err != nil {
			return nil, err
		}
	}
}
