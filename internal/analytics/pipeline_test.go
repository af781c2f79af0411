package analytics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/samples"
	"batterylab/internal/trace"
)

// settleGoroutines waits for the goroutine count to fall back to base:
// a fold goroutine is counted until it has returned from wg.Done.
func settleGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// chunkOffset is where chunk i of a version 2 trace starts in data: the
// byte of its length varint.
func chunkOffset(t *testing.T, data []byte, i int) int {
	t.Helper()
	_, payload, err := trace.DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	p := len(data) - len(payload)
	for ; i > 0; i-- {
		n, k := binary.Uvarint(data[p:])
		p += k
		for left := 2 * n; left > 0; p++ { // n timestamp varints, n value varints
			if data[p] < 0x80 {
				left--
			}
		}
	}
	return p
}

// TestComputeBinaryReturnsAlone: no fold goroutine outlives a query,
// whether it answers, meets a decode error mid-trace, refuses a bad query
// over a corrupt trace (with the decode error, which outranks it) or
// refuses a window too fine for the trace. Given the whole-trace summary
// with no window, a query folds nothing, yet decodes every byte and is
// refused alike.
func TestComputeBinaryReturnsAlone(t *testing.T) {
	data := encodeV2(t, makeCapture(9, 33))
	corrupt := append([]byte(nil), data...)
	corrupt[chunkOffset(t, corrupt, 20)] = 0 // a zero-length chunk 20
	_, decodeErr := trace.DecodeBinary(corrupt)
	if decodeErr == nil {
		t.Fatal("the corrupted trace decodes")
	}
	tr, err := trace.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	total := api.NewRunSummary(tr.Live())
	window := api.AnalyticsQuery{WindowNS: int64(2 * time.Second)}
	overflow := fmt.Errorf("%w: window 1000000ns over a 32999800000ns trace makes 33000 buckets (max 20000)", ErrBadQuery)
	for _, c := range []struct {
		name  string
		data  []byte
		q     api.AnalyticsQuery
		total *api.RunSummary
		want  error // nil: an answer
	}{
		{"success", data, window, nil, nil},
		{"rollup only", data, api.AnalyticsQuery{}, nil, nil},
		{"decode error at chunk 20", corrupt, window, nil, decodeErr},
		{"negative window over a corrupt trace", corrupt, api.AnalyticsQuery{WindowNS: -1}, nil, decodeErr},
		{"unknown field over a corrupt trace", corrupt, api.AnalyticsQuery{Fields: []string{"nope"}}, nil, decodeErr},
		{"overflow over a corrupt trace", corrupt, api.AnalyticsQuery{WindowNS: int64(time.Millisecond)}, nil, decodeErr},
		{"bucket overflow", data, api.AnalyticsQuery{WindowNS: int64(time.Millisecond)}, nil, overflow},
		{"stored rollup", data, api.AnalyticsQuery{}, &total, nil},
		{"stored rollup, decode error at chunk 20", corrupt, api.AnalyticsQuery{}, &total, decodeErr},
		{"stored rollup, bucket overflow", data, api.AnalyticsQuery{WindowNS: int64(time.Millisecond)}, &total, overflow},
	} {
		base := runtime.NumGoroutine()
		res, err := ComputeBinary(c.data, c.q, c.total)
		if fmt.Sprint(err) != fmt.Sprint(c.want) || (err == nil) != (res != nil) {
			t.Errorf("%s: result %v, error %v, want error %v", c.name, res != nil, err, c.want)
		}
		if c.want == decodeErr && errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: a decode error reads as a bad query", c.name)
		}
		settleGoroutines(t, base, c.name)
	}
}

// TestNoFoldsReturns: with no fold to feed, the producer laps the ring
// and runFolds returns, having started no goroutine. A query given its
// whole-trace summary and no window is such a run.
func TestNoFoldsReturns(t *testing.T) {
	base := runtime.NumGoroutine()
	const chunks = 10 * ringLen
	done := make(chan int, 1)
	go func() {
		emitted := 0
		runFolds(nil, func(p *pipeline) {
			for ; emitted < chunks; emitted++ {
				buf := p.buffer()
				p.emit(batch{t: buf.t[:1], v: buf.v[:1], buf: buf})
			}
		})
		done <- emitted
	}()
	select {
	case n := <-done:
		if n != chunks {
			t.Errorf("emitted %d chunks, want %d", n, chunks)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runFolds with no folds never returned: the producer waits on a ring slot nobody frees")
	}
	settleGoroutines(t, base, "no folds")
}

// TestFoldPanicReachesCaller: a panic mid-stream, in a fold or in the
// decoder feeding them, re-raises on the goroutine that ran the query
// after every fold goroutine has returned. A dead fold does not leave the
// ring waiting on it: the healthy fold still sees every chunk.
func TestFoldPanicReachesCaller(t *testing.T) {
	boom := errors.New("fold failed")
	const chunks = 10 * ringLen
	for _, c := range []struct {
		name     string
		producer bool // the producer panics before its third chunk, not fold 1 at it
		seen     int  // chunks the healthy fold 0 sees
	}{
		{"a fold", false, chunks},
		{"the producer", true, 2},
	} {
		base := runtime.NumGoroutine()
		seen := 0
		func() {
			defer func() {
				if got := recover(); got != boom {
					t.Errorf("%s: recovered %v, want %v", c.name, got, boom)
				}
			}()
			calls := 0
			runFolds([]fold{
				func([]int64, []float64, []uint32) { seen++ },
				func([]int64, []float64, []uint32) {
					if calls++; calls == 3 && !c.producer {
						panic(boom)
					}
				},
			}, func(p *pipeline) {
				for i := 0; i < chunks; i++ {
					if i == 2 && c.producer {
						panic(boom)
					}
					buf := p.buffer()
					p.emit(batch{t: buf.t[:1], v: buf.v[:1], buf: buf})
				}
			})
			t.Errorf("%s: runFolds returned", c.name)
		}()
		if seen != c.seen {
			t.Errorf("%s: the healthy fold saw %d chunks, want %d", c.name, seen, c.seen)
		}
		settleGoroutines(t, base, c.name+" panicking")
	}
}

// TestRollupAllocationFlat: given its stored summary, a rollup-only query
// allocates the same bytes over a trace eight times as long; the ring is
// recycled, never sized from the trace. Folding the rollup, it allocates
// one copy of the values more, in whole columns of samples.ChunkLen, and
// nothing else that grows. Each size keeps its least of several runs, the
// ones whose ring the pool still held.
func TestRollupAllocationFlat(t *testing.T) {
	least := func(data []byte, total *api.RunSummary) uint64 {
		best := ^uint64(0)
		for i := 0; i < 10; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ComputeBinary(data, api.AnalyticsQuery{}, total); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	short, long := makeCapture(3, 4), makeCapture(3, 32)
	shortTotal, longTotal := api.NewRunSummary(short.Live()), api.NewRunSummary(long.Live())
	shortData, longData := encodeV2(t, short), encodeV2(t, long)
	if s, l := least(shortData, &shortTotal), least(longData, &longTotal); l > s {
		t.Errorf("given the summary, a rollup query allocates %d bytes over %d samples, %d over 8× as many",
			s, short.Len(), l)
	}
	cols := func(n int) uint64 { return uint64(n+samples.ChunkLen-1) / samples.ChunkLen }
	values := 8 * samples.ChunkLen * (cols(long.Len()) - cols(short.Len()))
	const headers = 4096 // the growing slice of column headers
	if s, l := least(shortData, nil), least(longData, nil); l > s+values+headers {
		t.Errorf("folding, a rollup query allocates %d bytes over %d samples, %d over 8× as many: %d more than the %d bytes of the values' columns",
			s, short.Len(), l, l-s-values, values)
	}
}

// TestGridWindowsAllocationFlat: over the bytes a build stores (version 3,
// on the 0.1 mA grid), a query in 2 s windows that folds the rollup too
// counts levels and keeps no value, in a bucket or in the rollup: it
// allocates the same bytes over a trace eight times as long, but for the
// rows of its extra buckets. Each size keeps its least of several runs.
func TestGridWindowsAllocationFlat(t *testing.T) {
	q := api.AnalyticsQuery{WindowNS: int64(2 * time.Second)}
	least := func(data []byte) (uint64, int) {
		best, buckets := ^uint64(0), 0
		for i := 0; i < 10; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := ComputeBinary(data, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best, buckets = min(best, after.TotalAlloc-before.TotalAlloc), len(res.Buckets)
		}
		return best, buckets
	}
	short, long := gridOf(makeCapture(3, 4)), gridOf(makeCapture(3, 32))
	s, sb := least(encodeV3(t, short))
	l, lb := least(encodeV3(t, long))
	// rowBytes bounds what one more bucket costs: its summary, its row and
	// their share of the slices that hold them (about 470 bytes).
	const rowBytes = 1024
	if l > s+uint64(lb-sb)*rowBytes {
		t.Errorf("a 2 s-window query allocates %d bytes over %d grid samples, %d over 8× as many: %d more than %d rows of %d bytes",
			s, short.Len(), l, l-s-uint64(lb-sb)*rowBytes, lb-sb, rowBytes)
	}
}

// TestComputeBinaryConcurrent: queries running at once, as the HTTP
// server runs them, share the ring pool and still each answer exactly.
func TestComputeBinaryConcurrent(t *testing.T) {
	data := encodeV2(t, makeCapture(4, 12))
	q := api.AnalyticsQuery{WindowNS: int64(time.Second)}
	want, err := viaSeries(data, q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := ComputeBinary(data, q, nil)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent query: error %v, result differs: %v", err, !reflect.DeepEqual(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
