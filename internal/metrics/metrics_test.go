package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs submitted")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "jobs submitted"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("queue_depth", "builds waiting")
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}

	f := r.FloatCounter("credits_total", "credits moved")
	f.Add(1.5)
	f.Add(2.25)
	if got := f.Value(); got != 3.75 {
		t.Fatalf("float counter = %v, want 3.75", got)
	}
}

func TestLabeledInstances(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("http_requests_total", "", L("route", "/a", "code", "200")...)
	b := r.Counter("http_requests_total", "", L("route", "/b", "code", "200")...)
	if a == b {
		t.Fatal("distinct labels shared one counter")
	}
	// Label order must not matter.
	a2 := r.Counter("http_requests_total", "", L("code", "200", "route", "/a")...)
	if a2 != a {
		t.Fatal("label order changed instance identity")
	}
	a.Add(3)
	b.Inc()
	snap := r.Snapshot()
	m, ok := snap.Get("http_requests_total", L("route", "/a", "code", "200")...)
	if !ok || m.Value != 3 {
		t.Fatalf("Get(/a) = %v, %v; want value 3", m, ok)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	hv := h.Value()
	if hv.Count != 100 {
		t.Fatalf("count = %d, want 100", hv.Count)
	}
	if hv.Sum != 5050 {
		t.Fatalf("sum = %v, want 5050", hv.Sum)
	}
	if hv.Min != 1 || hv.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", hv.Min, hv.Max)
	}
	if math.Abs(hv.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", hv.Mean)
	}
	if hv.P50 < 40 || hv.P50 > 61 {
		t.Fatalf("p50 = %v, far from 50", hv.P50)
	}
	if hv.P99 < 90 || hv.P99 > 100 {
		t.Fatalf("p99 = %v, far from 99", hv.P99)
	}
}

func TestEmptyHistogramMarshalsCleanly(t *testing.T) {
	r := NewRegistry()
	r.Histogram("latency_seconds", "request latency")
	var sb strings.Builder
	if err := WriteJSON(&sb, r.Snapshot()); err != nil {
		t.Fatalf("WriteJSON on empty histogram: %v", err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Fatal("empty histogram leaked NaN into JSON")
	}
}

func TestCollectorConsistency(t *testing.T) {
	// A collector that emits two values under one lock must never be
	// observed torn, even with a writer hammering the pair.
	r := NewRegistry()
	var mu sync.Mutex
	var a, b int64 // invariant: a == b, maintained under mu
	r.Collect(func(e *Emitter) {
		mu.Lock()
		defer mu.Unlock()
		e.Counter("pair_a", "", float64(a))
		e.Counter("pair_b", "", float64(b))
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			a++
			b++
			mu.Unlock()
		}
	}()
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		ma, _ := snap.Get("pair_a")
		mb, _ := snap.Get("pair_b")
		if ma.Value != mb.Value {
			t.Fatalf("torn snapshot: pair_a=%v pair_b=%v", ma.Value, mb.Value)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotSortedAndJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", "")
	r.Gauge("alpha_depth", "")
	r.Histogram("mid_seconds", "")
	snap := r.Snapshot()
	names := make([]string, len(snap.Families))
	for i, f := range snap.Families {
		names[i] = f.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("families not sorted: %v", names)
	}

	var sb strings.Builder
	if err := WriteJSON(&sb, snap); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Families) != len(snap.Families) {
		t.Fatalf("round trip lost families: %d != %d", len(back.Families), len(snap.Families))
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "total requests", L("route", "/x", "code", "200")...).Add(3)
	r.Gauge("depth", "queue depth").Set(2)
	h := r.Histogram("lat_seconds", "latency")
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{code="200",route="/x"} 3`,
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE lat_seconds summary",
		`lat_seconds{quantile="0.5"} 0.5`,
		"lat_seconds_sum 5",
		"lat_seconds_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{Name: "path", Value: "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

// TestSnapshotRacesWithLazyRegistration hammers Snapshot while other
// goroutines lazily register fresh labeled instances and whole new
// families — the shape of the HTTP middleware, which materializes a
// (route,code) counter on first sight of each status. Run under -race
// this guards the family/instance copy in Snapshot. The writers do a
// fixed amount of work from one start signal (each registers 400 codes
// and 40 families), and the reader snapshots until they are done, at
// least 500 times, so every registration overlaps a snapshot and the
// test's cost does not grow with how the two interleave.
func TestSnapshotRacesWithLazyRegistration(t *testing.T) {
	const writers, perWriter = 4, 2000
	r := NewRegistry()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				r.Counter("race_requests_total", "",
					L("route", "/r", "code", strconv.Itoa(200+i%400))...).Inc()
				if i%50 == 0 {
					r.Gauge("race_family_"+strconv.Itoa(w)+"_"+strconv.Itoa(i), "").Set(1)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	writing := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	close(start)
	for i := 0; i < 500 || writing(); i++ {
		snap := r.Snapshot()
		for _, f := range snap.Families {
			if f.Name == "" {
				t.Fatal("snapshot produced unnamed family")
			}
		}
	}
	if n := len(r.Snapshot().Families); n != 1+writers*perWriter/50 {
		t.Fatalf("%d families registered, want %d", n, 1+writers*perWriter/50)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestInvalidNamesPanicAtRegistration(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "metric name with space", func() { r.Counter("bad name", "") })
	mustPanic(t, "metric name with digit prefix", func() { r.Gauge("9lives", "") })
	mustPanic(t, "empty metric name", func() { r.Histogram("", "") })
	mustPanic(t, "label name with dash", func() {
		r.Counter("ok_total", "", Label{Name: "bad-label", Value: "v"})
	})
	// Legal names — including colons and leading underscores — register.
	r.Counter("ns:sub_total", "").Inc()
	r.Gauge("_private", "").Set(1)

	// Collector-emitted names are held to the same rule at snapshot.
	r.Collect(func(e *Emitter) { e.Gauge("also bad", "", 1) })
	mustPanic(t, "collector with bad name", func() { r.Snapshot() })
}

func TestGaugeFuncMisregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn_depth", "", func() float64 { return 42 })
	snap := r.Snapshot()
	if m, ok := snap.Get("fn_depth"); !ok || m.Value != 42 {
		t.Fatalf("fn_depth = %v %v, want 42", m.Value, ok)
	}
	mustPanic(t, "GaugeFunc over existing fn", func() {
		r.GaugeFunc("fn_depth", "", func() float64 { return 1 })
	})

	r.Gauge("plain_depth", "").Set(7)
	mustPanic(t, "GaugeFunc over existing gauge", func() {
		r.GaugeFunc("plain_depth", "", func() float64 { return 1 })
	})
}

func TestConcurrentObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	h := r.Histogram("ops_seconds", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 17))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			snap := r.Snapshot()
			m, _ := snap.Get("ops_total")
			if m.Value != 8000 {
				t.Fatalf("ops_total = %v, want 8000", m.Value)
			}
			hm, _ := snap.Get("ops_seconds")
			if hm.Hist == nil || hm.Hist.Count != 8000 {
				t.Fatalf("histogram count = %+v, want 8000", hm.Hist)
			}
			return
		default:
			r.Snapshot()
		}
	}
}

// GaugeFunc registers a gauge whose value is computed at snapshot time.
// Unlike Counter/Gauge/Histogram, re-registration is not idempotent
// (two functions cannot be proven identical), so any existing instance
// with the same identity — a plain gauge or an earlier function — is a
// misregistration and panics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.family(name, help, KindGauge).inst(labels)
	if ok {
		panic("metrics: " + name + " already registered; GaugeFunc identity must be unique")
	}
	in.fn = fn
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }
