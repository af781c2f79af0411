package samples

import "math"

// WindowSummary is the summary of one fixed-width time bucket,
// [StartNS, StartNS+width): the LiveSummary of an ExactSummary of only
// the bucket's samples, whose moments and integral a capture's
// StreamSummary folds alike and whose quantiles are exact.
// Consecutive-sample spans that straddle a bucket boundary are not
// attributed to either bucket: each bucket integrates only its own
// samples, so the sum of bucket integrals undercounts the
// whole-series integral by the straddling spans — use a whole-series
// Trapezoid for the total.
type WindowSummary struct {
	// StartNS is the bucket's inclusive start, in the same clock as the
	// timestamps fed to Add (for a trace, nanoseconds since its epoch).
	StartNS int64
	LiveSummary
}

// Windowed partitions a time-ordered stream into fixed-width buckets
// and summarizes each with an ExactSummary — the core of the server's
// trace analytics. It holds the summaries of the closed buckets and the
// open one's, whose memory, level counts or kept values, is reused from
// bucket to bucket, and folds a run a bucket's stretch at a time: one call
// per stretch, not per sample. A stream on a grid is counted on it, and a
// bucket keeps no values; a bucket's P50 and P95 are read off its counts
// or a sorted copy of its values when it closes.
type Windowed struct {
	widthNS int64

	curIdx  int64        // bucket index of cur
	cur     ExactSummary // the open bucket
	started bool         // whether a sample has opened a bucket

	done []WindowSummary
}

// NewWindowed returns a windowed aggregator with buckets of widthNS
// nanoseconds: bucket k spans [k·width, (k+1)·width). widthNS must be
// positive. levels, an empty Levels of the grid of the stream's levels,
// or nil for none, counts every bucket's levels in turn.
func NewWindowed(widthNS int64, levels *Levels) *Windowed {
	if widthNS <= 0 {
		panic("samples: NewWindowed width must be positive")
	}
	return &Windowed{widthNS: widthNS, cur: *NewExactSummary(levels)}
}

// bucketOf floors t/width toward negative infinity, so samples before
// zero land in negative buckets instead of folding into bucket zero.
func (wd *Windowed) bucketOf(tNanos int64) int64 {
	k := tNanos / wd.widthNS
	if tNanos%wd.widthNS < 0 {
		k--
	}
	return k
}

// Add folds one sample in: a run of one.
func (wd *Windowed) Add(tNanos int64, v float64) {
	wd.AddRun([]int64{tNanos}, []float64{v})
}

// AddRun folds a run of samples of a stream on no grid, t[i] paired with
// v[i]. Samples must arrive in non-decreasing time order (the order every
// Series and trace stores them); a sample whose bucket precedes the open
// one is folded into the open bucket rather than reopening a flushed one.
// The run is cut where a sample opens a later bucket, and each piece goes
// to the bucket's summary as one run.
func (wd *Windowed) AddRun(t []int64, v []float64) { wd.AddLevelRun(t, v, nil) }

// AddLevelRun is AddRun of a run of levels ks of the stream's grid, v[i]
// being ks[i]'s value, which each bucket counts as they are
// (ExactSummary's AddLevelRun). With no grid, ks is nil.
func (wd *Windowed) AddLevelRun(t []int64, v []float64, ks []uint32) {
	t = t[:len(v)]
	for len(v) > 0 {
		if k := wd.bucketOf(t[0]); !wd.started || k > wd.curIdx {
			wd.open(k)
		}
		// A sample stays in the open bucket while it is below the bucket's
		// end — when that end is an int64 at all.
		n := len(v)
		if wd.curIdx < math.MaxInt64/wd.widthNS {
			end := (wd.curIdx + 1) * wd.widthNS
			for n = 1; n < len(v) && t[n] < end; n++ {
			}
		}
		var run []uint32
		if ks != nil {
			run, ks = ks[:n], ks[n:]
		}
		wd.cur.AddLevelRun(t[:n], v[:n], run)
		t, v = t[n:], v[n:]
	}
}

// open flushes the open bucket, if there is one, and opens bucket k.
func (wd *Windowed) open(k int64) {
	if wd.started {
		wd.done = append(wd.done, wd.snapshotCur())
		wd.cur.Reset()
	}
	wd.curIdx, wd.started = k, true
}

// snapshotCur summarizes the open bucket without disturbing it.
func (wd *Windowed) snapshotCur() WindowSummary {
	return WindowSummary{StartNS: wd.curIdx * wd.widthNS, LiveSummary: wd.cur.Snapshot()}
}

// Buckets returns every non-empty bucket seen so far, in time order,
// including the one still open. The aggregator remains usable; calling
// Buckets again after more Adds re-reports the final bucket with the
// extra samples folded in. Empty buckets (time ranges with no samples)
// are simply absent — callers render gaps, not zeros.
func (wd *Windowed) Buckets() []WindowSummary {
	out := make([]WindowSummary, 0, len(wd.done)+1)
	out = append(out, wd.done...)
	if wd.started {
		out = append(out, wd.snapshotCur())
	}
	return out
}
