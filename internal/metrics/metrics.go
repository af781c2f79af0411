// Package metrics is the platform's in-process instrumentation layer:
// lock-cheap counters and gauges (single atomics on the hot path),
// bounded-memory histograms built on the streaming P²/Welford
// aggregators from internal/samples, and a Registry that snapshots
// everything at once and serializes to JSON or Prometheus text format.
//
// Consistency model: individual counters and gauges are atomically
// read, but two independent atomics cannot be read as one transaction.
// Subsystems whose metrics must reconcile with each other (the
// scheduler's submitted == queued + running + finished invariant)
// register a collector instead: Snapshot runs every collector inline,
// and a collector that takes its subsystem's own lock emits a group of
// values that are mutually consistent within one snapshot.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"batterylab/internal/samples"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use, but counters are normally created through a Registry so they
// appear in snapshots.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas corrupt rates).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatCounter is a monotonically increasing float64 total (credit
// amounts, byte fractions). Add is a CAS loop on the bit pattern.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds v to the total.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value reports the current total.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram summarizes a stream of observations in O(1) memory: exact
// count/mean/min/max via Welford plus P² streaming estimates of the
// median and tail. Observe costs one short mutex hold — cheap enough
// for request paths, and bounded regardless of how many values arrive.
type Histogram struct {
	mu  sync.Mutex
	mom samples.Welford
	p50 *samples.P2Quantile
	p90 *samples.P2Quantile
	p99 *samples.P2Quantile
	sum float64
}

// NewHistogram returns an empty histogram tracking p50/p90/p99.
func NewHistogram() *Histogram {
	return &Histogram{
		p50: samples.NewP2Quantile(0.5),
		p90: samples.NewP2Quantile(0.9),
		p99: samples.NewP2Quantile(0.99),
	}
}

// Observe folds one value in.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.mom.Observe(v)
	h.p50.Observe(v)
	h.p90.Observe(v)
	h.p99.Observe(v)
	h.sum += v
	h.mu.Unlock()
}

// HistogramValue is one histogram's state at snapshot time. Quantiles
// are P² estimates (exact for count ≤ 5); all fields are 0 when empty
// so the snapshot always marshals to valid JSON (no NaN).
type HistogramValue struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Value reports the current summary.
func (h *Histogram) Value() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	hv := HistogramValue{Count: h.mom.N(), Sum: h.sum}
	if hv.Count == 0 {
		return hv
	}
	hv.Mean = h.mom.Mean()
	hv.Std = h.mom.Std()
	hv.Min = h.mom.Min()
	hv.Max = h.mom.Max()
	hv.P50 = h.p50.Value()
	hv.P90 = h.p90.Value()
	hv.P99 = h.p99.Value()
	return hv
}

// Kind classifies a metric family for exposition.
type Kind string

// Metric family kinds. Histograms are exposed to Prometheus as the
// summary type (streaming quantiles, not buckets).
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name=value pair on a metric instance.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for building a label list in call sites.
func L(pairs ...string) []Label {
	if len(pairs)%2 != 0 {
		panic("metrics: odd label pair list")
	}
	ls := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// labelKey builds a canonical map key from a sorted label list.
func labelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	return b.String()
}

func sortLabels(ls []Label) []Label {
	out := append([]Label(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// validMetricName reports whether s matches the Prometheus metric name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*. Label values are escaped at
// exposition time, but names are written verbatim, so an illegal name
// would silently corrupt the scrape output — it is rejected at
// registration instead, mirroring the kind-mismatch panics.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func checkNames(name string, ls []Label) {
	if !validMetricName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range ls {
		if !validLabelName(l.Name) {
			panic("metrics: invalid label name " + strconv.Quote(l.Name) + " on " + name)
		}
	}
}

// Collector emits a group of metric values at snapshot time. A
// collector that locks its subsystem's mutex while emitting guarantees
// the emitted group is internally consistent — the registry never sees
// a torn view of values that mutate together under that lock.
type Collector func(e *Emitter)

// Registry holds metric families and collectors and produces atomic
// snapshots of all of them.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string
	collectors []Collector
}

type family struct {
	name, help string
	kind       Kind
	insts      map[string]*instance
	order      []string
}

type instance struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	fctr   *FloatCounter
	hist   *Histogram
	fn     func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		if !validMetricName(name) {
			panic("metrics: invalid metric name " + strconv.Quote(name))
		}
		f = &family{name: name, help: help, kind: kind, insts: make(map[string]*instance)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

func (f *family) inst(labels []Label) (*instance, bool) {
	labels = sortLabels(labels)
	key := labelKey(labels)
	in, ok := f.insts[key]
	if !ok {
		for _, l := range labels {
			if !validLabelName(l.Name) {
				panic("metrics: invalid label name " + strconv.Quote(l.Name) + " on " + f.name)
			}
		}
		in = &instance{labels: labels}
		f.insts[key] = in
		f.order = append(f.order, key)
	}
	return in, ok
}

// Counter returns (registering if needed) the counter with the given
// name and labels. Repeated calls with the same identity return the
// same counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.family(name, help, KindCounter).inst(labels)
	if !ok {
		in.ctr = &Counter{}
	}
	if in.ctr == nil {
		panic("metrics: " + name + " is not an int counter")
	}
	return in.ctr
}

// FloatCounter returns (registering if needed) a float-valued counter.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.family(name, help, KindCounter).inst(labels)
	if !ok {
		in.fctr = &FloatCounter{}
	}
	if in.fctr == nil {
		panic("metrics: " + name + " is not a float counter")
	}
	return in.fctr
}

// Gauge returns (registering if needed) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.family(name, help, KindGauge).inst(labels)
	if !ok {
		in.gauge = &Gauge{}
	}
	if in.gauge == nil {
		panic("metrics: " + name + " is not a gauge")
	}
	return in.gauge
}

// Histogram returns (registering if needed) the histogram with the
// given name and labels.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.family(name, help, KindHistogram).inst(labels)
	if !ok {
		in.hist = NewHistogram()
	}
	if in.hist == nil {
		panic("metrics: " + name + " is not a histogram")
	}
	return in.hist
}

// Collect registers a collector run at every Snapshot.
func (r *Registry) Collect(fn Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Metric is one labeled instance inside a snapshot family.
type Metric struct {
	Labels []Label         `json:"labels,omitempty"`
	Value  float64         `json:"value"`
	Hist   *HistogramValue `json:"histogram,omitempty"`
}

// Family is one named metric family inside a snapshot.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    Kind     `json:"kind"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot is a point-in-time view of every registered metric, sorted
// by family name for stable output.
type Snapshot struct {
	Families []Family `json:"families"`
}

// Get returns the first metric in the named family, if present.
// Convenience for tests and report generators.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	want := labelKey(sortLabels(labels))
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if labelKey(m.Labels) == want {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Emitter receives values from collectors during Snapshot.
type Emitter struct {
	out map[string]*Family
	ord *[]string
}

func (e *Emitter) fam(name, help string, kind Kind) *Family {
	f, ok := e.out[name]
	if !ok {
		f = &Family{Name: name, Help: help, Kind: kind}
		e.out[name] = f
		*e.ord = append(*e.ord, name)
	}
	return f
}

// Counter emits one counter value.
func (e *Emitter) Counter(name, help string, v float64, labels ...Label) {
	checkNames(name, labels)
	f := e.fam(name, help, KindCounter)
	f.Metrics = append(f.Metrics, Metric{Labels: sortLabels(labels), Value: v})
}

// Gauge emits one gauge value.
func (e *Emitter) Gauge(name, help string, v float64, labels ...Label) {
	checkNames(name, labels)
	f := e.fam(name, help, KindGauge)
	f.Metrics = append(f.Metrics, Metric{Labels: sortLabels(labels), Value: v})
}

// Snapshot captures every registered metric and runs every collector.
// Values registered directly are read atomically; values emitted by
// one collector are mutually consistent under that collector's lock.
func (r *Registry) Snapshot() Snapshot {
	// Family and instance lists mutate under r.mu on every lazy
	// registration (the HTTP middleware registers (route,code) counters
	// mid-flight), so copy them out under the lock; the value reads,
	// gauge functions, and collectors then run unlocked. An instance's
	// ctr/gauge/fn fields are set inside the same critical section that
	// links it into the family, so any instance visible in the copy is
	// fully built.
	type famView struct {
		name, help string
		kind       Kind
		insts      []*instance
	}
	r.mu.Lock()
	fams := make([]famView, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		fv := famView{name: f.name, help: f.help, kind: f.kind,
			insts: make([]*instance, 0, len(f.order))}
		for _, key := range f.order {
			fv.insts = append(fv.insts, f.insts[key])
		}
		fams = append(fams, fv)
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	out := make(map[string]*Family, len(fams))
	var ord []string
	e := &Emitter{out: out, ord: &ord}
	for _, f := range fams {
		of := e.fam(f.name, f.help, f.kind)
		for _, in := range f.insts {
			m := Metric{Labels: in.labels}
			switch {
			case in.ctr != nil:
				m.Value = float64(in.ctr.Value())
			case in.fctr != nil:
				m.Value = in.fctr.Value()
			case in.gauge != nil:
				m.Value = float64(in.gauge.Value())
			case in.fn != nil:
				m.Value = in.fn()
			case in.hist != nil:
				hv := in.hist.Value()
				m.Hist = &hv
			}
			of.Metrics = append(of.Metrics, m)
		}
	}
	for _, c := range collectors {
		c(e)
	}

	snap := Snapshot{Families: make([]Family, 0, len(ord))}
	sort.Strings(ord)
	for _, name := range ord {
		snap.Families = append(snap.Families, *out[name])
	}
	return snap
}
