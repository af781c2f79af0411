package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one interval at a layer boundary the benchmark can see. Spans
// of one operation share Trace (a build id, or an operation id for work
// that belongs to no single build); Parent is the span that caused this
// one (0 = root).
type Span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"span"`
	Parent  int64  `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// layerWait marks lifecycle spans that measure waiting (a build sitting
// in the queue, a build's virtual run) rather than a layer being busy.
// They are reported on their own and never counted as busy time.
const layerWait = "wait"

// tracer records spans in memory. A nil *tracer records nothing, which
// is how the end-to-end passes run: every call site is unconditional
// and costs one nil check with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []Span
	// stack is the chain of open spans on the goroutine that is
	// currently running scheduler callbacks (the clock driver, or the
	// HTTP handler inside a submit). The workloads never run two of
	// those at once, so one stack serves both.
	stack []int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer's clock: ns since it was created (0 with tracing off).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span and returns its id (0 with tracing off).
func (t *tracer) begin(trace, parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name, StartNS: start})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// push opens a span whose parent is the innermost open pushed span, and
// makes it the innermost. pop closes it. Used on the scheduler-callback
// goroutine, where nesting follows the call stack.
func (t *tracer) push(trace int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Unlock()
	return t.pushUnder(trace, parent, layer, name)
}

// pushUnder is push with the parent given: the root of a new chain (an
// HTTP handler whose cause is a client span on another goroutine).
func (t *tracer) pushUnder(trace, parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	id := t.begin(trace, parent, layer, name)
	t.mu.Lock()
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

func (t *tracer) pop(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// record adds a finished span from two stamps taken elsewhere (the
// per-build lifecycle spans are assembled after the pass from stamps the
// client and the backend took).
func (t *tracer) record(trace, parent int64, layer, name string, startNS, endNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, Span{Trace: trace, ID: t.next, Parent: parent, Layer: layer, Name: name, StartNS: startNS, EndNS: endNS})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans dumps every span to path as one JSON array.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, overlaps
// counted once.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, hi int64
	first := true
	for _, v := range iv {
		if v.hi <= v.lo {
			continue
		}
		if first || v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
			first = false
			continue
		}
		if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children are clipped to
// the parent and overlapping children are counted once. Spans left open
// (EndNS 0) have no self time.
func selfTimes(spans []Span) map[int64]int64 {
	byID := make(map[int64]Span, len(spans))
	children := make(map[int64][]interval)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || s.EndNS == 0 {
			continue
		}
		lo, hi := s.StartNS, s.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		children[p.ID] = append(children[p.ID], interval{lo, hi})
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.EndNS == 0 {
			continue
		}
		self[s.ID] = (s.EndNS - s.StartNS) - unionLen(children[s.ID])
	}
	return self
}

// layerTable sums busy self time per layer inside [lo, hi), and reports
// how much of that window no busy span covered at all — the share the
// benchmark cannot attribute from the outside.
func layerTable(spans []Span, lo, hi int64) (perLayer map[string]int64, unattributed float64) {
	self := selfTimes(spans)
	perLayer = map[string]int64{}
	var cover []interval
	for _, s := range spans {
		if s.EndNS == 0 || s.Layer == layerWait || s.EndNS <= lo || s.StartNS >= hi {
			continue
		}
		perLayer[s.Layer] += self[s.ID]
		a, b := s.StartNS, s.EndNS
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		cover = append(cover, interval{a, b})
	}
	if hi > lo {
		unattributed = 1 - float64(unionLen(cover))/float64(hi-lo)
	}
	return perLayer, unattributed
}
