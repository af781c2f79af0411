package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batterylab"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/analytics"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
	"batterylab/internal/samples"
	"batterylab/internal/simclock"
	"batterylab/internal/trace"
)

// timedTransport is the measure workload's view of the remote client
// from the outside: the client library makes its own requests, so the
// benchmark times them at the transport — one wall per route class, from
// the request leaving to the response body being closed — and (traced)
// records a client span under the experiment that caused it.
type timedTransport struct {
	next   http.RoundTripper
	tr     *tracer
	parent atomic.Int64 // the experiment or analytics span in flight
	lat    latencies
	non2xx atomic.Int64
	bytes  byteCounts
}

type timedBody struct {
	io.ReadCloser
	done func(n int64)
	n    int64
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	class := classify(req.Method, req.URL.Path)
	parent := t.parent.Load()
	layer := "client"
	if class == routeEvents || class == routeSamples {
		layer = layerWait // a live stream is open for the build's whole run
	}
	sp := t.tr.begin(parent, parent, layer, class)
	if sp != 0 {
		req.Header.Set(spanHeader, "sp-"+strconv.FormatInt(sp, 10))
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.non2xx.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.lat.add(class, time.Since(start))
		t.tr.end(sp)
		t.bytes.add(class, n)
	}}
	return resp, nil
}

// vantage is the measure workload's server: one real simulated vantage
// point (controller, device, Monsoon) behind an access server with a WAL,
// on a virtual clock that a driver goroutine steps while builds exist.
type vantage struct {
	dep   *batterylab.Deployment
	clk   *simclock.Virtual
	st    *store.Store
	dir   string
	ts    *httptest.Server
	th    *timingHandler
	tt    *timedTransport
	rp    *remote.Platform
	stop  chan struct{}
	drove sync.WaitGroup
}

func newVantage(deploymentSeed uint64, tr *tracer) (*vantage, error) {
	v := &vantage{clk: batterylab.VirtualClock(), stop: make(chan struct{})}
	dep, err := batterylab.NewDeployment(v.clk, batterylab.DeploymentConfig{Seed: deploymentSeed})
	if err != nil {
		return nil, err
	}
	v.dep = dep
	if v.dir, err = workDir(); err != nil {
		return nil, err
	}
	if v.st, err = store.Open(v.dir); err != nil {
		return nil, err
	}
	if _, err := dep.Platform.Access.AttachStore(v.st); err != nil {
		return nil, err
	}
	token, err := batterylab.NewAPIToken(dep.Platform, "bench", "experimenter")
	if err != nil {
		return nil, err
	}
	v.th = newTimingHandler(dep.Platform.Access.Handler(), tr)
	v.th.liveStreams = true
	v.ts = httptest.NewServer(v.th)
	if v.rp, err = remote.Dial(v.ts.URL, token); err != nil {
		return nil, err
	}
	v.tt = &timedTransport{next: &http.Transport{MaxIdleConnsPerHost: 4}, tr: tr}
	v.rp.SetHTTPClient(&http.Client{Transport: v.tt})
	v.drove.Add(1)
	go func() {
		defer v.drove.Done()
		driveBuilds(v.clk, dep.Platform, tr, v.stop)
	}()
	return v, nil
}

func (v *vantage) close() {
	close(v.stop)
	v.drove.Wait()
	v.tt.next.(*http.Transport).CloseIdleConnections()
	v.ts.Close()
	v.st.Close()
	removeWorkDir(v.dir)
}

// driveBuilds is batterylab.DriveBuilds with a span around each burst of
// clock steps: it advances simulated time one timer at a time while a
// build runs and freezes it otherwise. The steps are where the simulated
// controller, device and Monsoon — and the measurement job's trace
// encoding — run.
//
// Unlike DriveBuilds it does not step for a build that is only queued.
// A submit enqueues the build, releases the scheduler lock and only then
// dispatches it under a clock hold; a driver that sees the queued build
// in that gap steps the clock to an unrelated deadline (a heartbeat, the
// WAL sync ticker), the build starts seconds of simulated time late, and
// every later result differs from the control run in the last digits
// (seen once in about 300 passes). A queued build with nothing running
// is stepped for only after stallPolls polls, so a build that does wait
// for a timer cannot hang the run.
func driveBuilds(v *simclock.Virtual, p *batterylab.Platform, tr *tracer, stop <-chan struct{}) {
	const (
		activePoll = 200 * time.Microsecond
		idlePoll   = 5 * time.Millisecond
		stallPolls = 250 // 50 ms of a queued build with nothing running
	)
	var burst int64
	pause := func(d time.Duration) {
		tr.end(burst)
		burst = 0
		time.Sleep(d)
	}
	queuedPolls := 0
	for {
		select {
		case <-stop:
			tr.end(burst)
			return
		default:
		}
		running, queued := p.Access.Running(), p.Access.QueueLength()
		if running == 0 && queued == 0 {
			queuedPolls = 0
			pause(idlePoll)
			continue
		}
		if running == 0 {
			if queuedPolls++; queuedPolls < stallPolls {
				pause(activePoll)
				continue
			}
		}
		queuedPolls = 0
		if burst == 0 {
			burst = tr.begin(0, 0, "core", "clock steps")
		}
		if !v.Step() {
			pause(activePoll)
		}
		ref.tick()
	}
}

// controlRun is what the same experiment measured on a local platform.
type controlRun struct {
	energy  float64
	samples int
	wallMS  float64
	result  *core.Result
}

// control runs the experiments on a second, identically configured local
// deployment — no HTTP, no scheduler — and is both the reference the
// remote results must equal bit for bit and the core layer's own time.
func control(in *Inputs) ([]controlRun, error) {
	dep, err := batterylab.NewDeployment(batterylab.VirtualClock(), batterylab.DeploymentConfig{Seed: in.Measure.DeploymentSeed})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var runs []controlRun
	for _, spec := range in.Measure.Experiments {
		spec.Node, spec.Device = dep.NodeName, dep.DeviceSerial
		start := time.Now()
		sess, err := dep.Platform.StartExperimentSpec(ctx, spec)
		if err != nil {
			return nil, err
		}
		res, err := sess.Wait(ctx)
		if err != nil {
			return nil, err
		}
		runs = append(runs, controlRun{
			energy: res.EnergyMAH, samples: res.Current.Len(),
			wallMS: float64(time.Since(start)) / 1e6, result: res,
		})
	}
	return runs, nil
}

// controlCache holds the control run of the process's inputs: every pass
// regenerates the same inputs, so one control run serves them all.
var controlCache struct {
	key  string
	runs []controlRun
}

func controlFor(in *Inputs) ([]controlRun, error) {
	data, err := json.Marshal(in.Measure)
	if err != nil {
		return nil, err
	}
	if key := string(data); controlCache.key != key {
		runs, err := control(in)
		if err != nil {
			return nil, err
		}
		controlCache.key, controlCache.runs = key, runs
	}
	return controlCache.runs, nil
}

// measureRun is one pass of the measure workload: one experimenter, one
// device, full-rate capture, closed loop.
type measureRun struct {
	v  *vantage
	in *Inputs
	tr *tracer
}

func measureSetup(in *Inputs, sz sizes, tr *tracer) (pass, error) {
	v, err := newVantage(in.Measure.DeploymentSeed, tr)
	if err != nil {
		return nil, err
	}
	return &measureRun{v: v, in: in, tr: tr}, nil
}

func (m *measureRun) close() { m.v.close() }

func (m *measureRun) run() (*passResult, error) {
	res := newPassResult()
	v, in, tr := m.v, m.in, m.tr
	ctx := context.Background()
	q := api.AnalyticsQuery{WindowNS: in.Measure.WindowNS}
	n := len(in.Measure.Experiments)

	type outcome struct {
		energy  float64
		samples int
	}
	var got []outcome
	var deviceTime, experimentWall time.Duration
	var dropped int64
	proc := startProc()
	start := ref.mark()
	res.spanLo = tr.now()
	for i, spec := range in.Measure.Experiments {
		spec.Node, spec.Device = v.dep.NodeName, v.dep.DeviceSerial
		sp := tr.begin(int64(i+1), 0, "client", "experiment")
		v.tt.parent.Store(sp)
		t0 := ref.mark()
		sess, err := v.rp.StartExperiment(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", i, err)
		}
		r, err := sess.Wait(ctx)
		d, _ := ref.since(t0)
		tr.end(sp)
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("experiment %d (build %d): %w", i, sess.Build(), err)
		}
		experimentWall += d
		deviceTime += r.Duration
		res.lats["op_ms"] = append(res.lats["op_ms"], float64(d)/1e6)
		got = append(got, outcome{r.EnergyMAH, r.Current.Len()})

		// The windowed analytics read twice: a miss, then a cache hit.
		var bodies [2]api.AnalyticsResult
		for k := range bodies {
			asp := tr.begin(int64(i+1), 0, "client", "analytics read")
			v.tt.parent.Store(asp)
			t := ref.mark()
			bodies[k], err = v.rp.Analytics(ctx, sess.Build(), q)
			ad, _ := ref.since(t)
			tr.end(asp)
			res.op(err)
			if err != nil {
				return nil, fmt.Errorf("analytics of build %d: %w", sess.Build(), err)
			}
			series := "analytics_ms"
			if k == 1 {
				series = "analytics.cache_hit_ms"
			}
			res.lats[series] = append(res.lats[series], float64(ad)/1e6)
		}
		res.check(reflect.DeepEqual(bodies[0], bodies[1]), "build %d: cached analytics differs from the computed one", sess.Build())
		v.tt.parent.Store(0)
		st, err := v.rp.BuildStatus(ctx, sess.Build())
		if err != nil {
			return nil, err
		}
		if st.Summary != nil {
			dropped += st.Summary.DroppedLiveSamples
		}
	}
	loopWall, factor := ref.since(start)
	res.wall, res.factor = loopWall, factor
	res.spanHi = tr.now()
	proc.stop(res, n)

	res.vals["builds_per_s"] = float64(n) / loopWall.Seconds()
	// Two reads per experiment, a miss and a hit, at their median cost.
	res.vals["reads_per_s"] = 2000 / (median(res.lats["analytics_ms"]) + median(res.lats["analytics.cache_hit_ms"]))
	res.lats["experiment_ms"] = res.lats["op_ms"]
	res.lats["client.artifact_ms"] = scale(v.tt.lat.get(routeTrace), 1e-3)
	res.lats["client.status_ms"] = scale(v.tt.lat.get(routeStatus), 1e-3)
	res.lats["client.submit_ms"] = scale(v.tt.lat.get(routeSubmit), 1e-3)
	res.lats["httpv1.submit_handler_ms"] = scale(v.th.lat.get(routeSubmit), 1e-3)
	res.lats["httpv1.status_handler_us"] = v.th.lat.get(routeStatus)
	stats := v.rp.Stats()
	res.vals["client.retries"] = float64(stats.RequestRetries + stats.StreamReconnects)
	res.vals["core.sim_speedup"] = deviceTime.Seconds() / experimentWall.Seconds()
	res.vals["core.dropped_live_samples"] = float64(dropped)

	srv := v.dep.Platform.Access
	snap := srv.MetricsSnapshot()
	hits := metricOf(snap, "blab_analytics_cache_hits_total")
	misses := metricOf(snap, "blab_analytics_cache_misses_total")
	res.vals["analytics.cache_hit_ratio"] = hits / (hits + misses)
	res.vals["store.appends_per_build"] = float64(v.st.TotalAppends()) / float64(n)
	res.vals["store.wal_bytes_per_build"] = float64(v.st.TotalAppendBytes()) / float64(n)
	feedVals(res, snap)

	// Output checks: every remote result equals the local control run of
	// the same spec bit for bit.
	want, err := controlFor(in)
	if err != nil {
		return nil, fmt.Errorf("control run: %w", err)
	}
	var totalSamples int64
	for i, g := range got {
		res.check(g.energy == want[i].energy && g.samples == want[i].samples,
			"experiment %d: remote %v mAh / %d samples, local control %v mAh / %d samples",
			i, g.energy, g.samples, want[i].energy, want[i].samples)
		totalSamples += int64(g.samples)
	}
	res.vals["trace.v2_bytes_per_sample"] = float64(v.tt.bytes.get(routeTrace)) / float64(totalSamples)
	succeeded := int64(metricOf(snap, "blab_builds_finished_total", "result", "success"))
	res.check(succeeded == int64(n), "%d of %d builds succeeded", succeeded, n)
	res.check(hits == float64(n) && misses == float64(n), "analytics cache saw %v hits and %v misses, want %d each", hits, misses, n)
	res.check(v.tt.non2xx.Load() == 0, "%d non-2xx responses", v.tt.non2xx.Load())
	res.det["experiments"] = int64(n)
	res.det["succeeded"] = succeeded
	res.det["monsoon_samples"] = totalSamples
	res.det["cache_hits"] = int64(hits)
	res.det["events_posted"] = int64(metricOf(snap, "blab_feed_events_posted_total"))
	res.det["samples_posted"] = int64(metricOf(snap, "blab_feed_samples_posted_total"))
	res.det["wal_appends"] = v.st.TotalAppends()
	return res, nil
}

// measureProbes times the sample path's layers through direct calls on
// one real full-rate series: the local experiment itself, the trace
// codecs, the sample store and the analytics engine.
func measureProbes(in *Inputs, sz sizes, tr *tracer, vals map[string]float64) error {
	runs, err := controlFor(in)
	if err != nil {
		return err
	}
	var local []float64
	for _, r := range runs {
		local = append(local, r.wallMS)
	}
	vals["core.local_experiment_ms_p50"] = median(local)

	series := runs[0].result.Current
	const reps = 5
	timeIt := func(layer, name string, fn func() error) (float64, error) {
		var ms []float64
		for i := 0; i < reps; i++ {
			sp := tr.begin(0, 0, layer, name)
			start := time.Now()
			err := fn()
			ms = append(ms, float64(time.Since(start))/1e6)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
		return median(ms), nil
	}
	var bin bytes.Buffer
	if vals["trace.encode_v2_ms"], err = timeIt("trace", "EncodeBinary", func() error {
		bin.Reset()
		return trace.EncodeBinary(&bin, series, trace.BinaryV2)
	}); err != nil {
		return err
	}
	if vals["trace.encode_csv_ms"], err = timeIt("trace", "WriteCSV", func() error {
		var b strings.Builder
		return series.WriteCSV(&b)
	}); err != nil {
		return err
	}
	var decoded *trace.Series
	if vals["trace.decode_v2_ms"], err = timeIt("trace", "ReadBinary", func() error {
		decoded, err = trace.ReadBinary(bytes.NewReader(bin.Bytes()))
		return err
	}); err != nil {
		return err
	}
	if decoded.Len() != series.Len() || decoded.EnergyMAH() != series.EnergyMAH() {
		return fmt.Errorf("trace round trip changed the series: %d/%v -> %d/%v",
			series.Len(), series.EnergyMAH(), decoded.Len(), decoded.EnergyMAH())
	}
	q := api.AnalyticsQuery{WindowNS: in.Measure.WindowNS}
	if vals["analytics.compute_ms_p50"], err = timeIt("analytics", "Compute", func() error {
		_, err := analytics.Compute(decoded, q)
		return err
	}); err != nil {
		return err
	}
	sp := tr.begin(0, 0, "samples", "Append")
	start := time.Now()
	s := samples.NewSeries()
	for i := 0; i < sz.ProbeSamples; i++ {
		s.Append(int64(i)*200000, float64(100+i%50))
	}
	vals["samples.append_ns_per_sample"] = float64(time.Since(start)) / float64(s.Len())
	tr.end(sp)
	return nil
}
