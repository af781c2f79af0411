package analytics

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/samples"
	"batterylab/internal/stats"
	"batterylab/internal/trace"
)

// makeTrace builds a deterministic ~n-sample power trace with
// stationary noise (the regime the documented P² bounds cover).
func makeTrace(seed int64, n int) *trace.Series {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewSeries("current", "mA")
	t0 := time.Unix(1_700_000_000, 0)
	var off int64
	for i := 0; i < n; i++ {
		off += int64(1_000_000 + rng.Intn(2_000_000)) // 1-3 ms cadence
		tr.MustAppend(t0.Add(time.Duration(off)), 130+rng.NormFloat64()*20)
	}
	return tr
}

// makeCapture builds a 5 kHz capture of the given length, the rate and
// size of a measured run, with two runs of invalid (NaN) samples: one
// straddling the boundary between the third and fourth chunks, one
// blanking the whole 2 s window from 20 s.
func makeCapture(seed int64, seconds int) *trace.Series {
	const hz = 5000
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewSeries("current", "mA")
	t0 := time.Unix(1_700_000_000, 0)
	for i := 0; i < seconds*hz; i++ {
		v := 150 + 40*math.Sin(float64(i)/3000) + rng.NormFloat64()*15
		if i >= 3*samples.ChunkLen-50 && i < 3*samples.ChunkLen+50 || i >= 20*hz && i < 22*hz+500 {
			v = math.NaN()
		}
		tr.MustAppend(t0.Add(time.Duration(i)*time.Second/hz), v)
	}
	return tr
}

// gridOf is tr's samples as levels of the Monsoon's 0.1 mA grid, its
// NaNs left out: a capture as its ADC rounds it, which a build stores as
// version 3 level deltas.
func gridOf(tr *trace.Series) *trace.Series {
	g := trace.NewGridSeries(tr.Name(), tr.Unit(), 10, 60000)
	tr.Iter(func(s trace.Sample) bool {
		if s.V == s.V {
			k := uint32(math.Max(0, math.Round(s.V*10)))
			if err := g.AppendLevels(s.T, 0, []uint32{k}); err != nil {
				panic(err)
			}
		}
		return true
	})
	return g
}

// encodeV3 is tr as WriteBinary writes it, the format a build's trace is
// stored in.
func encodeV3(t testing.TB, tr *trace.Series) []byte {
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeV2 is tr as a version 2 binary trace, the format a build's
// trace was stored in before version 3.
func encodeV2(t testing.TB, tr *trace.Series) []byte {
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr, trace.BinaryV2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestComputeAgainstBatch is the satellite property test: windowed
// aggregates must agree with a batch recomputation from the decoded
// trace — mean and energy to 1e-9 relative, quantiles exactly, bit for
// bit — and the rollup energy must be bit-identical to the capture-time
// integral.
func TestComputeAgainstBatch(t *testing.T) {
	tr := makeTrace(7, 40_000)
	const windowNS = int64(2_500_000_000)
	res, err := Compute(tr, api.AnalyticsQuery{WindowNS: windowNS})
	if err != nil {
		t.Fatal(err)
	}

	if got := *res.Total.EnergyMAH; got != tr.EnergyMAH() {
		t.Errorf("rollup energy %v not bit-identical to capture-time %v", got, tr.EnergyMAH())
	}
	if res.Total.Samples != int64(tr.Len()) {
		t.Errorf("rollup samples %d, trace has %d", res.Total.Samples, tr.Len())
	}
	sum := stats.SummarizeSeries(tr.Samples())
	if rel(*res.Total.MeanMA, sum.Mean) > 1e-9 {
		t.Errorf("rollup mean %v vs batch %v", *res.Total.MeanMA, sum.Mean)
	}
	if *res.Total.MinMA != sum.Min || *res.Total.MaxMA != sum.Max {
		t.Errorf("rollup extremes [%v,%v] vs batch [%v,%v]", *res.Total.MinMA, *res.Total.MaxMA, sum.Min, sum.Max)
	}
	var all []float64
	tr.Samples().Iter(func(_ int64, v float64) bool {
		all = append(all, v)
		return true
	})
	if p50, p95 := stats.Quantile(all, 0.5), stats.Quantile(all, 0.95); math.Float64bits(*res.Total.P50MA) != math.Float64bits(p50) ||
		math.Float64bits(*res.Total.P95MA) != math.Float64bits(p95) {
		t.Errorf("rollup quantiles %v, %v; exact %v, %v", *res.Total.P50MA, *res.Total.P95MA, p50, p95)
	}

	// Batch recomputation per bucket, straight off the decoded series.
	type sample struct {
		t int64
		v float64
	}
	byBucket := map[int64][]sample{}
	tr.Samples().Iter(func(tNanos int64, v float64) bool {
		byBucket[tNanos/windowNS] = append(byBucket[tNanos/windowNS], sample{tNanos, v})
		return true
	})
	if len(res.Buckets) != len(byBucket) {
		t.Fatalf("%d buckets computed, batch grouping has %d", len(res.Buckets), len(byBucket))
	}
	for _, b := range res.Buckets {
		k := b.StartNS / windowNS
		group := byBucket[k]
		if int64(len(group)) != b.Samples {
			t.Fatalf("bucket %d: %d samples, batch %d", k, b.Samples, len(group))
		}
		if b.EndNS != b.StartNS+windowNS {
			t.Fatalf("bucket %d: end %d, want %d", k, b.EndNS, b.StartNS+windowNS)
		}
		var vsum, integ float64
		minV, maxV := math.Inf(1), math.Inf(-1)
		vals := make([]float64, 0, len(group))
		for i, s := range group {
			vsum += s.v
			minV, maxV = math.Min(minV, s.v), math.Max(maxV, s.v)
			vals = append(vals, s.v)
			if i > 0 {
				integ += float64(s.t-group[i-1].t) / 1e9 * (s.v + group[i-1].v) / 2
			}
		}
		if rel(*b.MeanMA, vsum/float64(len(group))) > 1e-9 {
			t.Errorf("bucket %d mean %v vs batch %v", k, *b.MeanMA, vsum/float64(len(group)))
		}
		if *b.MinMA != minV || *b.MaxMA != maxV {
			t.Errorf("bucket %d extremes [%v,%v] vs [%v,%v]", k, *b.MinMA, *b.MaxMA, minV, maxV)
		}
		if rel(*b.EnergyMAH, integ/3600) > 1e-9 {
			t.Errorf("bucket %d energy %v vs batch %v", k, *b.EnergyMAH, integ/3600)
		}
		sort.Float64s(vals)
		for _, qc := range []struct {
			p   float64
			got float64
		}{{0.5, *b.P50MA}, {0.95, *b.P95MA}} {
			if exact := samples.QuantileSorted(vals, qc.p); math.Float64bits(qc.got) != math.Float64bits(exact) {
				t.Errorf("bucket %d p%v %v, exact %v", k, qc.p, qc.got, exact)
			}
		}
	}
}

func rel(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestComputeFieldSelection pins that fields= restricts what is
// computed and the echo is canonical (sorted, deduplicated).
func TestComputeFieldSelection(t *testing.T) {
	tr := makeTrace(11, 500)
	res, err := Compute(tr, api.AnalyticsQuery{Fields: []string{"energy", "mean", "energy"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"energy", "mean"}; fmt.Sprint(res.Fields) != fmt.Sprint(want) {
		t.Fatalf("fields echo %v, want %v", res.Fields, want)
	}
	if res.Total.MeanMA == nil || res.Total.EnergyMAH == nil {
		t.Fatal("requested fields missing")
	}
	if res.Total.MinMA != nil || res.Total.P50MA != nil {
		t.Fatal("unrequested fields present")
	}
	if res.Buckets != nil {
		t.Fatal("buckets present without a window")
	}

	if _, err := Compute(tr, api.AnalyticsQuery{Fields: []string{"bogus"}}); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Compute(tr, api.AnalyticsQuery{WindowNS: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := Compute(tr, api.AnalyticsQuery{WindowNS: 1}); err == nil {
		t.Fatal("1ns window over a multi-second trace must exceed MaxBuckets")
	}
}

// TestComputeEmptyAndNaN pins degenerate traces: no samples, and
// buckets whose samples are all invalid.
func TestComputeEmptyAndNaN(t *testing.T) {
	empty := trace.NewSeries("current", "mA")
	res, err := Compute(empty, api.AnalyticsQuery{WindowNS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Samples != 0 || res.Total.MeanMA != nil || len(res.Buckets) != 0 {
		t.Fatalf("empty trace result %+v", res)
	}
	// A JSON round trip must succeed (no NaN can leak into the wire
	// shape).
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}

	tr := trace.NewSeries("current", "mA")
	t0 := time.Unix(0, 0)
	tr.MustAppend(t0, math.NaN())
	tr.MustAppend(t0.Add(time.Millisecond), math.NaN())
	tr.MustAppend(t0.Add(2*time.Second), 5)
	res, err = Compute(tr, api.AnalyticsQuery{WindowNS: int64(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.NaNs != 2 || res.Total.Samples != 1 {
		t.Fatalf("NaN accounting: %+v", res.Total)
	}
	if len(res.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2 (NaN-only bucket present, gap absent)", len(res.Buckets))
	}
	if b := res.Buckets[0]; b.Samples != 0 || b.NaNs != 2 || b.MeanMA != nil {
		t.Fatalf("NaN-only bucket %+v", b)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// TestCacheLRU pins the byte-bounded LRU: exact body round trip,
// promotion on Get, eviction from the cold tail, oversized bodies
// bypassed.
func TestCacheLRU(t *testing.T) {
	c := NewCache(100)
	c.Put("a", bytes.Repeat([]byte("a"), 40))
	c.Put("b", bytes.Repeat([]byte("b"), 40))
	if got, ok := c.Get("a"); !ok || len(got) != 40 || got[0] != 'a' {
		t.Fatalf("get a: %q %v", got, ok)
	}
	// "b" is now the LRU tail; inserting 40 more bytes evicts it.
	c.Put("c", bytes.Repeat([]byte("c"), 40))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite promotion")
	}
	if c.SizeBytes() != 80 || c.Len() != 2 {
		t.Fatalf("size %d len %d", c.SizeBytes(), c.Len())
	}
	// Oversized body: ignored, cache untouched.
	c.Put("huge", bytes.Repeat([]byte("x"), 101))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized body cached")
	}
	// Replacing a key adjusts accounting.
	c.Put("a", bytes.Repeat([]byte("A"), 10))
	if c.SizeBytes() != 50 {
		t.Fatalf("size after replace %d", c.SizeBytes())
	}
	// Disabled cache, an empty body included.
	for _, max := range []int64{0, -1} {
		d := NewCache(max)
		d.Put("k", []byte("v"))
		d.Put("empty", []byte{})
		for _, key := range []string{"k", "empty"} {
			if _, ok := d.Get(key); ok {
				t.Fatalf("cache of %d bytes stored %q", max, key)
			}
		}
		if d.Len() != 0 {
			t.Fatalf("cache of %d bytes holds %d entries", max, d.Len())
		}
	}
}

// TestComputeDeterministic pins that two identical queries marshal to
// identical bytes — the property that makes body-level caching safe.
func TestComputeDeterministic(t *testing.T) {
	tr := makeTrace(3, 10_000)
	q := api.AnalyticsQuery{WindowNS: int64(time.Second)}
	a, err := Compute(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatal("identical queries produced different bytes")
	}
}

// traceFixtures are binary traces of versions 1 and 2, which
// answers.golden pins the answers to: the trace package's golden files
// and encodings of this file's series, degenerate ones included.
func traceFixtures(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for _, name := range []string{"golden_v1.bltrace", "golden_v2.bltrace"} {
		data, err := os.ReadFile(filepath.Join("..", "trace", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	single := trace.NewSeries("current", "mA")
	single.MustAppend(time.Unix(1_700_000_000, 5), 42)
	nans := trace.NewSeries("current", "mA")
	nans.MustAppend(time.Unix(0, 0), math.NaN())
	nans.MustAppend(time.Unix(0, 0), math.NaN())
	nans.MustAppend(time.Unix(3, 0), 5)
	// Over 40 chunks, so the decoder laps the ring of chunk buffers ten
	// times; its 2 s windows straddle chunk boundaries.
	out["capture.v2"] = encodeV2(t, makeCapture(5, 33))
	for name, tr := range map[string]*trace.Series{
		"noisy":  makeTrace(11, 9_000), // spans chunks, about 18 s
		"empty":  trace.NewSeries("current", "mA"),
		"single": single,
		"nans":   nans,
	} {
		for _, version := range []int{trace.BinaryV1, trace.BinaryV2} {
			var buf bytes.Buffer
			if err := trace.EncodeBinary(&buf, tr, version); err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s.v%d", name, version)] = buf.Bytes()
		}
	}
	return out
}

// viaSeries is the analytics read as it was before ComputeBinary: decode
// into a Series, then aggregate it, in one sequential fold.
func viaSeries(data []byte, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	tr, err := trace.DecodeBinary(data)
	if err != nil {
		return nil, err
	}
	return sequential(tr, q)
}

// sequential is the reference fold: Compute as one loop feeding each
// sample to the rollup and then to the windows, on the calling goroutine,
// every quantile read off a sorted copy, whatever grid the trace is on.
func sequential(tr *trace.Series, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	fields, err := checkQuery(q)
	if err != nil {
		return nil, err
	}
	render, err := sequentialFold(tr, q.WindowNS)
	if err != nil {
		return nil, err
	}
	return render(q, fields), nil
}

// sequentialFold is sequential's fold, done once for every query with
// windows of windowNS: it returns their answers' renderer.
func sequentialFold(tr *trace.Series, windowNS int64) (func(q api.AnalyticsQuery, fields []string) *api.AnalyticsResult, error) {
	durationNS := tr.Duration().Nanoseconds()
	if err := checkBuckets(windowNS, durationNS); err != nil {
		return nil, err
	}
	var epochNS int64
	if tr.Len() > 0 {
		epochNS = tr.At(0).T.UnixNano()
	}
	a := newAggs(windowNS, nil, 0, 0)
	tr.Samples().Iter(func(tNanos int64, v float64) bool {
		a.total.AddRun([]int64{tNanos}, []float64{v})
		if a.wd != nil {
			a.wd.Add(tNanos, v)
		}
		return true
	})
	return func(q api.AnalyticsQuery, fields []string) *api.AnalyticsResult {
		return a.result(q, fields, epochNS, durationNS)
	}, nil
}

// TestAnalyticsFromBytesMatchesSeries: folding straight off the column
// decoder gives, for every fixture, window and field selection, the
// struct the sequential fold of the Series gives — every float the same
// bits — and so does folding the Series' chunks. A window too fine for a
// trace is refused by all three with the same error.
func TestAnalyticsFromBytesMatchesSeries(t *testing.T) {
	var fieldSets [][]string
	for mask := 0; mask < 1<<len(allFields); mask++ { // mask 0: no selection, every field
		var set []string
		for i, f := range allFields {
			if mask&(1<<i) != 0 {
				set = append(set, f)
			}
		}
		fieldSets = append(fieldSets, set)
	}
	refused := 0
	for name, data := range traceFixtures(t) {
		tr, err := trace.DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, windowNS := range []int64{0, int64(time.Millisecond), int64(2 * time.Second)} {
			render, wantErr := sequentialFold(tr, windowNS)
			if wantErr != nil && !errors.Is(wantErr, ErrBadQuery) {
				t.Fatalf("%s: %v", name, wantErr)
			}
			check := func(path string, q api.AnalyticsQuery, got *api.AnalyticsResult, err error) {
				t.Helper()
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s window %d: %s error %v, the sequential fold gives %v", name, windowNS, path, err, wantErr)
				}
				var want *api.AnalyticsResult
				if wantErr == nil {
					fields, err := NormalizeFields(q.Fields)
					if err != nil {
						t.Fatal(err)
					}
					want = render(q, fields)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s window %d fields %v: %s\n got %+v\nwant %+v", name, windowNS, q.Fields, path, got, want)
				}
			}
			for _, fields := range fieldSets {
				q := api.AnalyticsQuery{WindowNS: windowNS, Fields: fields, Artifact: name}
				got, err := ComputeBinary(data, q, nil)
				check("ComputeBinary", q, got, err)
			}
			// The field selection only renders: the Series feed needs one.
			q := api.AnalyticsQuery{WindowNS: windowNS, Artifact: name}
			got, err := Compute(tr, q)
			check("Compute", q, got, err)
			if wantErr != nil {
				refused++
			}
		}
	}
	if refused != 1 {
		t.Errorf("%d windows refused, want the one of 1 ms over the 33 s capture", refused)
	}
}

// TestComputeBinaryErrors: a query the Series path refuses is refused the
// same way, and bytes that are no trace are not a bad query.
func TestComputeBinaryErrors(t *testing.T) {
	data := traceFixtures(t)["noisy.v2"]
	for _, q := range []api.AnalyticsQuery{{WindowNS: -1}, {WindowNS: 1}, {Fields: []string{"nope"}}} {
		_, want := viaSeries(data, q)
		_, got := ComputeBinary(data, q, nil)
		if !errors.Is(got, ErrBadQuery) || got.Error() != want.Error() {
			t.Errorf("%+v: error %v, the Series path gives %v", q, got, want)
		}
	}
	if _, err := ComputeBinary(data[:len(data)-3], api.AnalyticsQuery{WindowNS: 1}, nil); err == nil || errors.Is(err, ErrBadQuery) {
		t.Errorf("truncated trace: error %v, want a decode error", err)
	}
}

// spanAllTime is a trace whose last sample is the whole of int64 time
// after its first: bytes a relayed artifact can carry.
func spanAllTime() []byte {
	return trace.AppendBinary(nil, "current", "mA", time.Unix(0, 0), []int64{0, math.MaxInt64}, []float64{1, 2})
}

// TestBucketBoundAtEndOfTime: over a trace that spans the whole of int64
// time, a 1 ns window is refused as too many buckets, and a window of
// 2^62 ns answers with a last bucket that ends at the end of int64 time,
// not before its start. Compute and ComputeBinary agree on both.
func TestBucketBoundAtEndOfTime(t *testing.T) {
	data := spanAllTime()
	for _, q := range []api.AnalyticsQuery{{WindowNS: 1}, {WindowNS: 1 << 62}} {
		want, wantErr := viaSeries(data, q)
		got, err := ComputeBinary(data, q, nil)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: ComputeBinary %+v (%v), via a Series %+v (%v)", q.WindowNS, got, err, want, wantErr)
		}
		if q.WindowNS == 1 {
			if !errors.Is(err, ErrBadQuery) {
				t.Errorf("1 ns windows over all of int64 time: error %v, want too many buckets", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var ends []int64
		for _, b := range got.Buckets {
			ends = append(ends, b.EndNS)
		}
		if want := []int64{1 << 62, math.MaxInt64}; !reflect.DeepEqual(ends, want) {
			t.Errorf("2^62 ns windows over all of int64 time end at %v, want %v", ends, want)
		}
	}
}

// FuzzAnalyticsBytes feeds ComputeBinary arbitrary bytes as a trace of
// any version. It must refuse or answer, never panic, and refuse and
// answer exactly as decoding into a Series first does. Bytes it answers
// for it answers alike given their whole-trace summary, the decoded
// Series' own, as a build stores it: every float the same bits, the sign
// of a zero included.
func FuzzAnalyticsBytes(f *testing.F) {
	for _, data := range traceFixtures(f) {
		if len(data) > 1<<10 {
			continue // a seed the mutator can get somewhere with
		}
		f.Add(data, int64(time.Second))
		f.Add(data[:len(data)-1], int64(0))
	}
	f.Add([]byte("BLTRC\x02\x00\x00\x00\x00\x02\x02\x01\x7f\x00\x00"), int64(1))
	negZero := trace.NewSeries("current", "mA")
	for i, v := range []float64{math.Copysign(0, -1), math.NaN(), 0, 3} {
		negZero.MustAppend(time.Unix(0, int64(i)*1e6), v)
	}
	f.Add(encodeV2(f, negZero), int64(0))
	overflow := trace.NewSeries("current", "mA")
	for i, v := range []float64{math.Copysign(0, -1), math.MaxFloat64, math.MaxFloat64} {
		overflow.MustAppend(time.Unix(int64(i), 0), v)
	}
	f.Add(encodeV2(f, overflow), int64(0)) // energy +Inf: no JSON carries it
	// Version 3, as a build stores a trace: these series, ones on a grid
	// (their values as level deltas, an empty one's header alone), and
	// the same with a byte cut off.
	empty := trace.NewGridSeries("current", "mA", 10, 60000)
	for _, tr := range []*trace.Series{negZero, overflow, gridOf(makeTrace(11, 100)), gridOf(negZero), empty} {
		data := encodeV3(f, tr)
		f.Add(data, int64(time.Millisecond))
		f.Add(data[:len(data)-1], int64(0))
	}
	f.Add(spanAllTime(), int64(1))
	f.Add(spanAllTime(), int64(1<<62))
	f.Fuzz(func(t *testing.T, raw []byte, windowNS int64) {
		q := api.AnalyticsQuery{WindowNS: windowNS}
		want, wantErr := viaSeries(raw, q)
		got, err := ComputeBinary(raw, q, nil)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ComputeBinary: %v; via a Series: %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) { // no NaN to trip on: an undefined aggregate is a nil pointer
			t.Fatalf("ComputeBinary gives %+v, via a Series %+v", got, want)
		}
		if err != nil {
			return
		}
		tr, err := trace.DecodeBinary(raw)
		if err != nil {
			t.Fatal(err)
		}
		total := api.NewRunSummary(tr.Live())
		stored, err := ComputeBinary(raw, q, &total)
		if err != nil || !reflect.DeepEqual(stored, want) || !sameBits(stored, want) {
			t.Fatalf("given its summary, ComputeBinary gives %+v (%v); folding, %+v", stored, err, want)
		}
	})
}

// TestComputeBinaryV3MatchesV2: the bytes a build stores (version 3, a
// grid capture's values as level deltas, whose buckets and rollup count
// levels) answer every query as the version 2 bytes of the same series
// do, whose buckets and rollup sort their values, every float the same
// bits; so do the v3 bytes given the series' stored summary, and those of
// series on no grid.
func TestComputeBinaryV3MatchesV2(t *testing.T) {
	for name, tr := range map[string]*trace.Series{
		"grid capture":      gridOf(makeCapture(5, 33)),
		"capture with NaNs": makeCapture(5, 33),
		"noisy":             makeTrace(11, 9_000),
	} {
		v3 := encodeV3(t, tr)
		if h, _, err := trace.DecodeHeader(v3); err != nil || h.Version != trace.BinaryV3 || (h.Scale == 10) != (name == "grid capture") {
			t.Fatalf("%s: header %+v, %v", name, h, err)
		}
		v2 := encodeV2(t, tr)
		total := api.NewRunSummary(tr.Live())
		for _, windowNS := range []int64{0, int64(100 * time.Millisecond), int64(2 * time.Second)} {
			q := api.AnalyticsQuery{WindowNS: windowNS}
			want, err := ComputeBinary(v2, q, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := ComputeBinary(v3, q, nil)
			if err != nil || !reflect.DeepEqual(got, want) || !sameBits(got, want) {
				t.Fatalf("%s window %d: v3 gives %+v (%v), v2 %+v", name, windowNS, got, err, want)
			}
			got, err = ComputeBinary(v3, q, &total)
			if err != nil || !reflect.DeepEqual(got, want) || !sameBits(got, want) {
				t.Fatalf("%s window %d: v3 with its stored total gives %+v (%v), v2 %+v", name, windowNS, got, err, want)
			}
		}
	}
}

// sameBits reports whether every aggregate of a and b, in the total and
// in each bucket, has the same bits or is nil in both. Like sameJSON it
// tells 0 from -0; it also compares rows no JSON carries, such as an
// energy that overflowed to +Inf.
func sameBits(a, b *api.AnalyticsResult) bool {
	ra := append([]api.AnalyticsBucket{a.Total}, a.Buckets...)
	rb := append([]api.AnalyticsBucket{b.Total}, b.Buckets...)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		xs := []*float64{x.MeanMA, x.MinMA, x.MaxMA, x.P50MA, x.P95MA, x.EnergyMAH}
		ys := []*float64{y.MeanMA, y.MinMA, y.MaxMA, y.P50MA, y.P95MA, y.EnergyMAH}
		for j := range xs {
			if (xs[j] == nil) != (ys[j] == nil) || xs[j] != nil && math.Float64bits(*xs[j]) != math.Float64bits(*ys[j]) {
				return false
			}
		}
	}
	return true
}

// sameJSON reports whether a and b marshal to the same bytes, which
// tells apart floats reflect.DeepEqual holds equal: 0 and -0.
func sameJSON(a, b *api.AnalyticsResult) bool {
	aj, aerr := json.Marshal(a)
	bj, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(aj, bj)
}

// TestStoredTotalFoldsOnlyWindows: given the whole-trace summary, a query
// folds no rollup: with no window it folds nothing, with one only the
// windows. Its Total is the summary's, whatever the bytes say, so a
// summary that is not theirs shows through, while its windows, epoch and
// span are the bytes'.
func TestStoredTotalFoldsOnlyWindows(t *testing.T) {
	data := encodeV2(t, makeCapture(5, 33))
	tr, err := trace.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	total := api.NewRunSummary(tr.Live())
	for _, windowNS := range []int64{0, int64(2 * time.Second)} {
		a := newAggs(windowNS, &total, 0, 0)
		if folds := a.folds(); a.total != nil || len(folds) != len(newAggs(windowNS, nil, 0, 0).folds())-1 {
			t.Errorf("window %d: %d folds given the summary, rollup folded %v", windowNS, len(folds), a.total != nil)
		}
		q := api.AnalyticsQuery{WindowNS: windowNS}
		want, err := ComputeBinary(data, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeBinary(data, q, &total)
		if err != nil || !reflect.DeepEqual(got, want) || !sameJSON(got, want) {
			t.Errorf("window %d: given the summary %+v (%v), folding %+v", windowNS, got, err, want)
		}

		wrong := total
		wrong.MeanMA, wrong.NaNs = -1, 7
		got, err = ComputeBinary(data, q, &wrong)
		if err != nil {
			t.Fatal(err)
		}
		if *got.Total.MeanMA != -1 || got.Total.NaNs != 7 || got.Total.Samples != wrong.Samples-7 {
			t.Errorf("window %d: Total %+v, not the summary's", windowNS, got.Total)
		}
		got.Total = want.Total
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: beside its Total, the answer is not the bytes'", windowNS)
		}
	}
}

// SizeBytes reports the stored body bytes.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
