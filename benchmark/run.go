package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// pass is one assembled pass of a workload: run is its timed region and
// output checks, close tears the server down. Assembling it (the
// workload's setup function) is what setup_s measures.
type pass interface {
	run() (*passResult, error)
	close()
}

// workload is one entry of the benchmark: passes over freshly generated
// inputs on a freshly assembled server, plus the direct-call probes the
// traced run adds.
type workload struct {
	name  string
	setup func(in *Inputs, sz sizes, tr *tracer) (pass, error)
	// probes measures single layers through direct public calls and puts
	// run-level per-layer values into vals.
	probes func(in *Inputs, sz sizes, tr *tracer, vals map[string]float64) error
}

var workloads = []workload{
	{name: "backlog", setup: backlogSetup, probes: backlogProbes},
	{name: "dashboard", setup: dashboardSetup, probes: dashboardProbes},
	{name: "measure", setup: measureSetup, probes: measureProbes},
	{name: "restart", setup: restartSetup, probes: restartProbes},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Pass-count policy: whole passes of fixed work repeat until the run's
// measuring time is used up. A first pass shorter than warmupBelow is
// discarded as warm-up. A set-up that takes less than cheapSetup is
// rehearsed setupRehearsals more times before each pass, so that setup_s
// is a median of many samples and not of a handful of millisecond ones.
const (
	maxPasses       = 15
	warmupBelow     = 5 * time.Second
	cheapSetup      = 100 * time.Millisecond
	setupRehearsals = 4
)

// runResult is a finished run of one workload.
type runResult struct {
	workload string
	traced   bool
	passes   []*passResult
	setups   []float64 // seconds on the reference clock, every set-up of the run
	rawSetup []float64 // the same as measured
	runVals  map[string]float64
	spans    []Span

	attempted, failed int64
	violations        []string
}

// setUp generates the inputs and assembles one pass, timing both. A
// collection runs first so one pass's garbage is not charged to the next.
func setUp(w workload, seed uint64, sz sizes, tr *tracer) (pass, *Inputs, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	in := generate(seed, sz)
	p, err := w.setup(in, sz, tr)
	return p, in, time.Since(start), err
}

// onePass sets up (rehearsing cheap set-ups), runs and tears down one
// pass. Set-up times are recorded unless discard is set.
func (rr *runResult) onePass(w workload, seed uint64, sz sizes, tr *tracer, discard bool) (*passResult, *Inputs, error) {
	p, in, d, err := setUp(w, seed, sz, tr)
	if err != nil {
		return nil, nil, err
	}
	samples := []float64{d.Seconds()}
	for i := 0; i < setupRehearsals && d < cheapSetup; i++ {
		p.close()
		if p, in, d, err = setUp(w, seed, sz, tr); err != nil {
			return nil, nil, err
		}
		samples = append(samples, d.Seconds())
	}
	defer p.close()
	res, err := p.run()
	if err != nil {
		return nil, nil, err
	}
	res.toReference()
	if !discard {
		// A set-up is too short to hold reference slices of its own; the
		// pass that follows it says how fast the host was.
		rr.rawSetup = append(rr.rawSetup, samples...)
		rr.setups = append(rr.setups, scale(samples, res.factor)...)
	}
	return res, in, nil
}

// runWorkload measures one workload for about `seconds` seconds. With
// traced set it runs traced passes for half the time, one untraced pass
// to compare them with, then the layer probes, and reports per-layer
// metrics; otherwise every pass is untraced and it reports the end-to-end
// ones.
func runWorkload(w workload, seed uint64, sz sizes, seconds float64, traced bool) (*runResult, error) {
	rr := &runResult{workload: w.name, traced: traced, runVals: map[string]float64{}}
	budget := time.Duration(seconds * float64(time.Second))
	began := time.Now()

	first, in, err := rr.onePass(w, seed, sz, nil, true)
	if err != nil {
		return nil, err
	}
	keepFirst := first.wall >= warmupBelow && !traced
	if keepFirst {
		rr.passes = append(rr.passes, first)
	}
	want := first.detString()

	var tr *tracer
	if traced {
		tr = newTracer()
		ref.tr = tr
		defer func() { ref.tr = nil }()
		budget /= 2
	}
	for len(rr.passes) < maxPasses && (len(rr.passes) == 0 || time.Since(began) < budget) {
		res, _, err := rr.onePass(w, seed, sz, tr, false)
		if err != nil {
			return nil, err
		}
		if got := res.detString(); got != want {
			res.check(false, "outcome differs between passes of one seed:\n  first: %s\n  later: %s", want, got)
		}
		rr.passes = append(rr.passes, res)
	}
	// The untraced pass the traced ones are compared with runs after
	// them, warm like they were.
	var untraced *passResult
	if traced {
		ref.tr = nil
		if untraced, _, err = rr.onePass(w, seed, sz, nil, true); err != nil {
			return nil, err
		}
		ref.tr = tr
	}

	for _, p := range rr.passes {
		rr.attempted += p.attempted
		rr.failed += p.failed
		rr.violations = append(rr.violations, p.violations...)
	}
	if !keepFirst {
		rr.violations = append(rr.violations, first.violations...)
		rr.failed += first.failed
	}
	rr.runVals["setup_s"] = median(rr.setups)
	rr.runVals["raw.setup_s"] = median(rr.rawSetup)
	rr.runVals["proc.peak_rss_mb"] = peakRSSMB()
	rr.runVals["bench.calibration_ns"] = ref.nsPerUnit()

	if traced {
		rr.spans = tr.snapshot()
		last := rr.lastPass()
		_, unattributed := layerTable(rr.spans, last.spanLo, last.spanHi)
		rr.runVals["bench.unattributed_share"] = unattributed
		var walls []float64
		for _, p := range rr.passes {
			walls = append(walls, p.wall.Seconds()*p.factor)
		}
		rr.runVals["bench.trace_overhead_share"] = median(walls)/(untraced.wall.Seconds()*untraced.factor) - 1
		if err := w.probes(in, sz, tr, rr.runVals); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		rr.spans = tr.snapshot()
	}
	return rr, nil
}

// deterministic is the outcome block of the run (every pass had the same
// one, or a violation was recorded).
func (rr *runResult) deterministic() map[string]int64 { return rr.lastPass().det }

// lastPass is the pass the outcome block and the layer table are read from.
func (rr *runResult) lastPass() *passResult { return rr.passes[len(rr.passes)-1] }

// value reports one metric of the run.
func (rr *runResult) value(name string) float64 { return metricValue(name, rr.passes, rr.runVals) }

// defs are the metrics this run reports: end-to-end untraced, per-layer
// traced.
func (rr *runResult) defs() []metricDef {
	if rr.traced {
		return perLayer
	}
	return endToEnd
}

// resultLine is the machine-readable last line of a run's output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rr *runResult) line() resultLine {
	out := resultLine{Correct: rr.failed == 0, Attempted: rr.attempted, Failed: rr.failed, Metrics: map[string]metricJSON{}}
	for _, d := range rr.defs() {
		out.Metrics[d.Name] = metricJSON{Value: rr.value(d.Name), Unit: d.Unit}
	}
	return out
}

// print writes the human-readable report and, last, the result line.
func (rr *runResult) print(w io.Writer) error {
	mode := "end-to-end (tracing off)"
	if rr.traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "workload %s: %d passes, %s\n", rr.workload, len(rr.passes), mode)
	fmt.Fprintf(w, "  pass wall s (host speed):")
	for _, p := range rr.passes {
		fmt.Fprintf(w, " %.3f (%.2f)", p.wall.Seconds(), p.factor)
	}
	fmt.Fprintln(w)
	for _, d := range rr.defs() {
		note := ""
		if series, _, ok := splitPercentile(d.Name); ok {
			if n := pooledCount(series, rr.passes); n > 0 {
				note = fmt.Sprintf("  (n=%d)", n)
			}
		}
		if !rr.traced {
			note += fmt.Sprintf("  as measured: %.6g", rr.value("raw."+d.Name))
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-10s%s\n", d.Name, rr.value(d.Name), d.Unit, note)
	}
	if !rr.traced {
		// The percentile rule: beside the median, the highest percentile
		// with at least ten samples beyond it.
		n := pooledCount("op_ms", rr.passes)
		if p := tailPercentile(n); p > 0 {
			var pool []float64
			for _, ps := range rr.passes {
				pool = append(pool, ps.lats["op_ms"]...)
			}
			fmt.Fprintf(w, "  %-34s %16.6g %-10s  (n=%d, informational)\n", fmt.Sprintf("op_ms_p%g", p), percentile(pool, p), "ms", n)
		}
	}
	if rr.traced {
		rr.printLayerTable(w)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  calibration %.3f ns\n", rr.attempted, rr.failed, rr.runVals["bench.calibration_ns"])
	fmt.Fprintf(w, "  deterministic: %s\n", rr.lastPass().detString())
	for _, v := range rr.violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	data, err := json.Marshal(rr.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printLayerTable prints busy self time per layer over the last traced
// pass, and the waiting spans on their own.
func (rr *runResult) printLayerTable(w io.Writer) {
	last := rr.lastPass()
	perLayer, unattributed := layerTable(rr.spans, last.spanLo, last.spanHi)
	wall := float64(last.spanHi - last.spanLo)
	layers := make([]string, 0, len(perLayer))
	for l := range perLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return perLayer[layers[i]] > perLayer[layers[j]] })
	fmt.Fprintf(w, "  self time by layer, last traced pass (wall %.3f s):\n", wall/1e9)
	for _, l := range layers {
		fmt.Fprintf(w, "    %-10s %10.3f s  %5.1f %% of wall\n", l, float64(perLayer[l])/1e9, 100*float64(perLayer[l])/wall)
	}
	fmt.Fprintf(w, "    %-10s %10.3f s  %5.1f %% of wall (inside no span)\n", "(none)", unattributed*wall/1e9, 100*unattributed)
	waits := map[string][]float64{}
	for _, s := range rr.spans {
		if s.Layer == layerWait && s.StartNS >= last.spanLo && s.EndNS <= last.spanHi {
			waits[s.Name] = append(waits[s.Name], float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	for name, ms := range waits {
		fmt.Fprintf(w, "    wait %-12s p50 %10.3f ms  (n=%d)\n", name, median(ms), len(ms))
	}
}
