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

// TestComputeAgainstBatch is the satellite property test: windowed
// aggregates must agree with a batch recomputation from the decoded
// trace — mean and energy to 1e-9 relative, quantiles within the
// documented P² envelope — and the rollup energy must be bit-identical
// to the capture-time integral.
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
			exact := samples.QuantileSorted(vals, qc.p)
			bound := 0.05 * (maxV - minV) // documented for n ≥ 1000
			if int64(len(group)) < 1000 {
				bound = 0.25 * (maxV - minV) // ragged final bucket
			}
			if len(group) <= 5 {
				if qc.got != exact {
					t.Errorf("bucket %d p%v small-n %v != %v", k, qc.p, qc.got, exact)
				}
			} else if math.Abs(qc.got-exact) > bound+1e-12 {
				t.Errorf("bucket %d p%v %v vs exact %v exceeds P² bound", k, qc.p, qc.got, exact)
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
	// Disabled cache.
	d := NewCache(0)
	d.Put("k", []byte("v"))
	if _, ok := d.Get("k"); ok {
		t.Fatal("disabled cache stored an entry")
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

// traceFixtures are binary traces of both versions: the trace package's
// golden files and encodings of this file's series, degenerate ones
// included.
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
// into a Series, then aggregate it.
func viaSeries(data []byte, q api.AnalyticsQuery) (*api.AnalyticsResult, error) {
	tr, err := trace.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return Compute(tr, q)
}

// TestAnalyticsFromBytesMatchesSeries: folding straight off the column
// decoder gives, for every fixture, window and field selection, the
// struct the Series-based path gives — every float the same bits.
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
	for name, data := range traceFixtures(t) {
		for _, windowNS := range []int64{0, int64(2 * time.Second)} {
			for _, fields := range fieldSets {
				q := api.AnalyticsQuery{WindowNS: windowNS, Fields: fields, Artifact: name}
				want, err := viaSeries(data, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := ComputeBinary(data, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s window %d fields %v:\n got %+v\nwant %+v", name, windowNS, fields, got, want)
				}
			}
		}
	}
}

// TestComputeBinaryErrors: a query the Series path refuses is refused the
// same way, and bytes that are no trace are not a bad query.
func TestComputeBinaryErrors(t *testing.T) {
	data := traceFixtures(t)["noisy.v2"]
	for _, q := range []api.AnalyticsQuery{{WindowNS: -1}, {WindowNS: 1}, {Fields: []string{"nope"}}} {
		_, want := viaSeries(data, q)
		_, got := ComputeBinary(data, q)
		if !errors.Is(got, ErrBadQuery) || got.Error() != want.Error() {
			t.Errorf("%+v: error %v, the Series path gives %v", q, got, want)
		}
	}
	if _, err := ComputeBinary(data[:len(data)-3], api.AnalyticsQuery{WindowNS: 1}); err == nil || errors.Is(err, ErrBadQuery) {
		t.Errorf("truncated trace: error %v, want a decode error", err)
	}
}

// FuzzAnalyticsBytes feeds ComputeBinary arbitrary bytes as a trace of
// either version. It must refuse or answer, never panic, and refuse and
// answer exactly as decoding into a Series first does.
func FuzzAnalyticsBytes(f *testing.F) {
	for _, data := range traceFixtures(f) {
		if len(data) > 1<<10 {
			continue // a seed the mutator can get somewhere with
		}
		f.Add(data, int64(time.Second))
		f.Add(data[:len(data)-1], int64(0))
	}
	f.Add([]byte("BLTRC\x02\x00\x00\x00\x00\x02\x02\x01\x7f\x00\x00"), int64(1))
	f.Fuzz(func(t *testing.T, raw []byte, windowNS int64) {
		q := api.AnalyticsQuery{WindowNS: windowNS}
		want, wantErr := viaSeries(raw, q)
		got, err := ComputeBinary(raw, q)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ComputeBinary: %v; via a Series: %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) { // no NaN to trip on: an undefined aggregate is a nil pointer
			t.Fatalf("ComputeBinary gives %+v, via a Series %+v", got, want)
		}
	})
}
