package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/analytics"
	"batterylab/internal/api"
	"batterylab/internal/browser"
	"batterylab/internal/device"
	"batterylab/internal/samples"
	"batterylab/internal/stats"
	"batterylab/internal/trace"
	"batterylab/internal/video"
)

func browserSpec(r *rig, name string, pages int) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Monitor: api.MonitorSpec{SampleRateHz: 200},
		Workload: api.WorkloadSpec{
			Name:   "browser",
			Params: api.Params{"browser": name, "pages": pages, "scrolls": 2},
		},
	}
}

func installStudyBrowsers(t testing.TB, r *rig) {
	t.Helper()
	for _, prof := range browser.Profiles() {
		b := browser.New(prof, r.ctl.AP(), func() string { return r.ctl.Region() })
		if err := r.dev.Install(b); err != nil {
			t.Fatal(err)
		}
	}
}

// runWhile runs the clock instant by instant while busy holds, failing
// if it stalls or passes budget of simulated time first.
func (r *rig) runWhile(t *testing.T, busy func() bool, budget time.Duration) {
	t.Helper()
	limit := r.clk.Now().Add(budget)
	if err := r.clk.RunWhile(busy, func() time.Time { return limit }); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitExperimentThroughQueue(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	admin, err := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.plat.SubmitExperiment(admin, "brave-study", browserSpec(r, "Brave", 2))
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("admin submission should queue immediately")
	}
	// The build runs asynchronously on clock callbacks; drive time.
	r.runWhile(t, func() bool { return b.State() == accessserver.StateRunning }, 10*time.Minute)
	if b.State() != accessserver.StateSuccess {
		t.Fatalf("state = %v err = %v log:\n%s", b.State(), b.Err(), b.Log())
	}
	// Artifacts: the three binary traces in the workspace.
	for _, name := range []string{ArtifactCurrentTrace, ArtifactDeviceCPU, ArtifactControllerCPU} {
		raw, err := b.Workspace().Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		series, err := trace.DecodeBinary(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if series.Len() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	if !strings.Contains(b.Log(), "measured "+r.serial) {
		t.Fatalf("log:\n%s", b.Log())
	}
	// current.csv is a view over the v1 API: listed, served whole with
	// its length, byte for byte the CSV export of the stored binary
	// current trace, in more bytes.
	var names []string
	getJSON(t, r.plat, fmt.Sprintf("/api/v1/builds/%d/artifacts", b.ID), &names)
	if !slices.Contains(names, ArtifactCurrentCSV) {
		t.Fatalf("artifacts = %v, want %s listed", names, ArtifactCurrentCSV)
	}
	rawBin, err := b.Workspace().Load(ArtifactCurrentTrace)
	if err != nil {
		t.Fatal(err)
	}
	binSeries, err := trace.DecodeBinary(rawBin)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := binSeries.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	csvPath := fmt.Sprintf("/api/v1/builds/%d/artifacts/%s", b.ID, ArtifactCurrentCSV)
	w := get(t, r.plat, csvPath)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", csvPath, w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), csv.Bytes()) || binSeries.Name() != "current" || binSeries.Unit() != "mA" {
		t.Fatalf("binary artifact: len=%d name=%q unit=%q does not export to the served CSV",
			binSeries.Len(), binSeries.Name(), binSeries.Unit())
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length = %q for a %d-byte body", cl, w.Body.Len())
	}
	if len(rawBin) >= w.Body.Len() {
		t.Fatalf("binary trace %d bytes not smaller than CSV %d", len(rawBin), w.Body.Len())
	}
	// The view goes with the workspace at retention purge (the default
	// window is five days).
	r.clk.Advance(6 * 24 * time.Hour)
	if _, err := b.Workspace().Load(ArtifactCurrentCSV); !errors.Is(err, accessserver.ErrNotFound) {
		t.Fatalf("Load after purge: %v, want ErrNotFound", err)
	}
	if e := apiErrorOf(t, get(t, r.plat, csvPath)); e.Code != api.CodeNotFound || e.HTTPStatus() != http.StatusNotFound {
		t.Fatalf("GET %s after purge: %+v, want not_found", csvPath, e)
	}
}

// apiErrorOf decodes a response's api.Error envelope, failing the test
// if the status or the body is not one.
func apiErrorOf(t *testing.T, w *httptest.ResponseRecorder) *api.Error {
	t.Helper()
	var env api.Envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("%d body %.80q is not an api.Error envelope (%v)", w.Code, w.Body, err)
	}
	if w.Code != env.Error.HTTPStatus() {
		t.Fatalf("status %d for a %s error", w.Code, env.Error.Code)
	}
	return env.Error
}

// TestCSVViewOfCorruptTrace: a current.trace in a workspace can come
// from a peer. If the stored bytes do not decode, the current.csv view
// answers with a typed error, never a panic and never a partial 200.
func TestCSVViewOfCorruptTrace(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	admin, _ := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	b, err := r.plat.SubmitExperiment(admin, "one-page", browserSpec(r, "Brave", 1))
	if err != nil {
		t.Fatal(err)
	}
	r.runWhile(t, func() bool { return b.State() == accessserver.StateRunning }, 10*time.Minute)
	if b.State() != accessserver.StateSuccess {
		t.Fatalf("state = %v err = %v", b.State(), b.Err())
	}
	raw, err := b.Workspace().Load(ArtifactCurrentTrace)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := fmt.Sprintf("/api/v1/builds/%d/artifacts/%s", b.ID, ArtifactCurrentCSV)
	for name, bad := range map[string][]byte{
		"truncated payload": raw[:len(raw)/2],
		"truncated header":  raw[:5],
		"not a trace":       []byte("elapsed_s,current_mA\n0.000000,1.000000\n"),
		"empty":             {},
	} {
		t.Run(name, func(t *testing.T) {
			b.Workspace().Save(ArtifactCurrentTrace, bad)
			if _, err := b.Workspace().Load(ArtifactCurrentCSV); err == nil {
				t.Fatal("Load rendered a CSV from a corrupt trace")
			}
			w := get(t, r.plat, csvPath)
			if e := apiErrorOf(t, w); e.Code != api.CodeInternal || !strings.Contains(e.Message, ArtifactCurrentTrace) {
				t.Fatalf("GET %s: %+v, want internal naming %s", csvPath, e, ArtifactCurrentTrace)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want the error envelope's", ct)
			}
		})
	}
}

func TestSubmitExperimentNeedsApproval(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	exp, err := r.plat.Access.Users.Add("bob", accessserver.RoleExperimenter)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.plat.SubmitExperiment(exp, "bob-study", browserSpec(r, "Chrome", 1))
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatal("experimenter job ran without admin approval")
	}
	// Admin approves, experimenter submits.
	admin, _ := r.plat.Access.Users.Add("alice", accessserver.RoleAdmin)
	if err := r.plat.Access.ApproveJob(admin, "bob-study"); err != nil {
		t.Fatal(err)
	}
	b2, err := r.plat.Access.Submit(exp, "bob-study")
	if err != nil {
		t.Fatal(err)
	}
	r.runWhile(t, func() bool { return b2.State() == accessserver.StateRunning }, 10*time.Minute)
	if b2.State() != accessserver.StateSuccess {
		t.Fatalf("state = %v err = %v", b2.State(), b2.Err())
	}
}

func TestQueuedExperimentsSerializeOnDevice(t *testing.T) {
	r := newRig(t)
	installStudyBrowsers(t, r)
	admin, _ := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)

	b1, err := r.plat.SubmitExperiment(admin, "first", browserSpec(r, "Brave", 1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.plat.SubmitExperiment(admin, "second", browserSpec(r, "Chrome", 1))
	if err != nil {
		t.Fatal(err)
	}
	// The device lock keeps the second build queued while the first
	// owns the monitor — "one job at the time per device" (§3.1).
	if b1.State() != accessserver.StateRunning {
		t.Fatalf("b1 = %v", b1.State())
	}
	if b2.State() != accessserver.StateQueued {
		t.Fatalf("b2 = %v, want queued behind device lock", b2.State())
	}
	r.runWhile(t, func() bool { return !b2.State().Terminal() }, 30*time.Minute)
	if b1.State() != accessserver.StateSuccess || b2.State() != accessserver.StateSuccess {
		t.Fatalf("states = %v, %v (b2 err %v)", b1.State(), b2.State(), b2.Err())
	}
}

func TestMeasurementJobFailurePropagates(t *testing.T) {
	r := newRig(t)
	// No browsers installed: the workload's launch step fails, the build
	// records the failure and the monitor is released.
	admin, _ := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	b, err := r.plat.SubmitExperiment(admin, "doomed", browserSpec(r, "Brave", 1))
	if err != nil {
		t.Fatal(err)
	}
	r.runWhile(t, func() bool { return b.State() == accessserver.StateRunning }, 10*time.Minute)
	if b.State() != accessserver.StateFailure {
		t.Fatalf("state = %v", b.State())
	}
	if r.ctl.Measuring() != "" {
		t.Fatal("monitor leaked after failed build")
	}
}

// TestTwoDevicesShareOneMonitor: a vantage point has one power monitor,
// so two builds on different devices of the same controller must not run
// at once — the second waits for the node, it does not fail with the
// controller's "already measuring". A campaign over both serials of a
// two-device node (the setup of experiments/seconddevice.go) runs them
// back to back.
func TestTwoDevicesShareOneMonitor(t *testing.T) {
	r := newRig(t)
	second, err := device.New(r.clk, device.Config{Seed: 82, Serial: "J7DUO000002"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.AttachDevice(second); err != nil {
		t.Fatal(err)
	}
	admin, err := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	idle := func(serial string) api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: "node1", Device: serial,
			Monitor:  api.MonitorSpec{SampleRateHz: 200},
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 10000}},
		}
	}
	_, builds, err := r.plat.Access.SubmitCampaign(admin, api.CampaignSpec{
		Experiments: []api.ExperimentSpec{idle(r.serial), idle(second.Serial())},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, waiting := builds[0], builds[1]
	st, err := r.plat.Access.BuildStatus(waiting.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.State() != accessserver.StateRunning || st.State != "queued" || st.PendingReason != "waiting for node1" {
		t.Fatalf("at submit: build 1 %s, build 2 %s (%q; %v): want running, and queued waiting for node1",
			first.State(), st.State, st.PendingReason, waiting.Err())
	}
	r.runWhile(t, func() bool { return !waiting.State().Terminal() }, 10*time.Minute)
	for _, b := range builds {
		if b.State() != accessserver.StateSuccess {
			t.Fatalf("build %d: %s (%v)", b.ID, b.State(), b.Err())
		}
	}
	if end := first.QueueTime() + first.Duration(); waiting.QueueTime() < end {
		t.Fatalf("build 2 started %s after submit, build 1 only finished at %s: the runs overlap",
			waiting.QueueTime(), end)
	}
}

// tapBackend compiles specs like the platform's own backend, but runs
// each through start directly: the pipeline body measurementJob builds,
// with taps on the two values it does not keep. started, when set, gets
// the run's session once it is set up; ran, when set, gets the Result
// handed to onDone before saveRun stores it on the build.
type tapBackend struct {
	specBackend
	started func(*session)
	ran     func(*Result)
}

func (b tapBackend) Compile(ws api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons, _, err := b.specBackend.Compile(ws)
	if err != nil {
		return cons, nil, err
	}
	spec, err := b.p.compileExperiment(ws)
	if err != nil {
		return cons, nil, err
	}
	return cons, func(ctx *accessserver.BuildContext, done func(error)) {
		sess, err := b.p.start(spec, ctx.Build.ID, ctx.Build.Feed(), func(res *Result, err error) {
			if err == nil {
				if b.ran != nil {
					b.ran(res)
				}
				err = saveRun(ctx.Build, res)
			}
			done(err)
		})
		if err != nil {
			done(err)
			return
		}
		if b.started != nil {
			b.started(sess)
		}
		ctx.OnCancel(sess.Cancel)
	}, nil
}

// sameSeries reports the first sample where two traces differ in a bit
// of the time or the value.
func sameSeries(t *testing.T, what string, got, want *trace.Series) {
	t.Helper()
	if got.Name() != want.Name() || got.Unit() != want.Unit() || got.Len() != want.Len() {
		t.Errorf("%s: decoded %s/%s with %d samples, ran %s/%s with %d",
			what, got.Name(), got.Unit(), got.Len(), want.Name(), want.Unit(), want.Len())
		return
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if g.T.UnixNano() != w.T.UnixNano() || math.Float64bits(g.V) != math.Float64bits(w.V) {
			t.Errorf("%s[%d]: decoded %v at %s, ran %v at %s",
				what, i, g.V, g.T.Format(time.StampNano), w.V, w.T.Format(time.StampNano))
			return
		}
	}
}

// TestDecodedResultMatchesRun is the differential test of a build's
// artifacts: for every registered workload, the Result a run hands to
// start's onDone and the one decodeResult rebuilds from that build's
// workspace and status are equal field by field, bit for bit. A
// remote, campaign or routed result is decoded this way, so it is the
// run's own.
func TestDecodedResultMatchesRun(t *testing.T) {
	params := map[string]api.Params{
		"browser": {"browser": "Chrome", "pages": 1, "scrolls": 2},
		"video":   {"duration_ms": 30000},
		"idle":    {"duration_ms": 10000},
	}
	r := newRig(t)
	installStudyBrowsers(t, r)
	r.dev.Storage().Push("/sdcard/video.mp4", video.SampleMP4(1<<20))
	r.dev.Install(video.NewPlayer("/sdcard/video.mp4"))
	admin, err := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	var ran *Result
	r.plat.Access.SetSpecBackend(tapBackend{specBackend: specBackend{r.plat}, ran: func(res *Result) { ran = res }})
	names := r.plat.Workloads().Names()
	if len(names) != len(params) {
		t.Fatalf("registry has %v, the test covers %d workloads", names, len(params))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ran = nil
			b, err := r.plat.Access.SubmitSpec(admin, api.ExperimentSpec{
				Node: "node1", Device: r.serial, Mirroring: true,
				Monitor:  api.MonitorSpec{SampleRateHz: 500},
				Workload: api.WorkloadSpec{Name: name, Params: params[name]},
			})
			if err != nil {
				t.Fatal(err)
			}
			r.runWhile(t, func() bool { return !b.State().Terminal() }, 10*time.Minute)
			if b.State() != accessserver.StateSuccess || ran == nil {
				t.Fatalf("state = %v err = %v log:\n%s", b.State(), b.Err(), b.Log())
			}
			st, err := r.plat.Access.BuildStatus(b.ID)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeResult(b.Workspace().Load, st)
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, "Current", got.Current, ran.Current)
			sameSeries(t, "DeviceCPU", got.DeviceCPU, ran.DeviceCPU)
			sameSeries(t, "ControllerCPU", got.ControllerCPU, ran.ControllerCPU)
			if math.Float64bits(got.EnergyMAH) != math.Float64bits(ran.EnergyMAH) {
				t.Errorf("EnergyMAH: decoded %v, ran %v", got.EnergyMAH, ran.EnergyMAH)
			}
			if got.Duration != ran.Duration || got.MirrorUploadBytes != ran.MirrorUploadBytes {
				t.Errorf("decoded %v and %d mirror bytes, ran %v and %d",
					got.Duration, got.MirrorUploadBytes, ran.Duration, ran.MirrorUploadBytes)
			}
			if ran.DeviceCPU.Len() == 0 || ran.ControllerCPU.Len() == 0 {
				t.Errorf("degenerate run: %d/%d CPU points", ran.DeviceCPU.Len(), ran.ControllerCPU.Len())
			}
		})
	}
}

// blanked is a copy of a capture with two runs of invalid (NaN) samples,
// one across the boundary between its first two chunks and one the
// whole second from 3 s, and a -0 as its eleventh sample: below every
// other value of a current trace, so the trace's minimum is a zero with
// its sign bit set.
func blanked(tr *trace.Series, hz int) *trace.Series {
	out := trace.NewSeries(tr.Name(), tr.Unit())
	t0 := tr.At(0).T
	i := 0
	tr.Samples().Chunks(0, func(offs []int64, vals []float64) bool {
		for k, off := range offs {
			v := vals[k]
			switch {
			case i == 10:
				v = math.Copysign(0, -1)
			case i >= samples.ChunkLen-50 && i < samples.ChunkLen+50, i >= 3*hz && i < 4*hz:
				v = math.NaN()
			}
			out.MustAppend(t0.Add(time.Duration(off)), v)
			i++
		}
		return true
	})
	return out
}

// TestStoredSummaryIsTheRollup pins the stored summary to the analytics
// rollup on a real capture: the summary saveRun stores for a 5 kHz run,
// with NaN runs and a -0 minimum written into its trace, survives the
// WAL codec and the JSON of a snapshot and of the status route to the
// bit, and given as the known total it makes ComputeBinary answer
// exactly as folding the stored bytes does, Total row included.
func TestStoredSummaryIsTheRollup(t *testing.T) {
	const hz = 5000
	r := newRig(t)
	admin, err := r.plat.Access.Users.Add("admin", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	r.plat.Access.SetSpecBackend(tapBackend{specBackend: specBackend{r.plat}, ran: func(res *Result) {
		res.Current = blanked(res.Current, hz)
	}})
	b, err := r.plat.Access.SubmitSpec(admin, api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Monitor:  api.MonitorSpec{SampleRateHz: hz},
		Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 8000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.runWhile(t, func() bool { return !b.State().Terminal() }, 10*time.Minute)
	if b.State() != accessserver.StateSuccess || b.Summary == nil {
		t.Fatalf("state = %v err = %v summary %v", b.State(), b.Err(), b.Summary)
	}
	sum := *b.Summary
	if !sum.Rollup || sum.NaNs < int64(hz) || sum.MinMA != 0 || !math.Signbit(float64(sum.MinMA)) {
		t.Fatalf("stored summary %+v: want the Rollup mark, over %d NaNs and a -0 minimum", sum, hz)
	}

	// Through the WAL: a finished record, appended and replayed.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]store.Record{{T: store.TBuildFinished, BuildID: b.ID, State: "success", Summary: &sum}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	_, recs := st.Load()
	st.Close()
	if len(recs) != 1 || recs[0].Summary == nil {
		t.Fatalf("replayed %d records", len(recs))
	}
	// Through JSON: a snapshot and the status route both carry it so.
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON api.RunSummary
	if err := json.Unmarshal(raw, &viaJSON); err != nil {
		t.Fatal(err)
	}

	data, err := b.Workspace().Load(ArtifactCurrentTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, windowNS := range []int64{0, int64(2 * time.Second)} {
		q := api.AnalyticsQuery{WindowNS: windowNS, Artifact: ArtifactCurrentTrace}
		fold, err := analytics.ComputeBinary(data, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		foldJSON, _ := json.Marshal(fold)
		if !bytes.Contains(foldJSON, []byte(`"min_ma":-0,`)) || fold.Total.NaNs != sum.NaNs {
			t.Fatalf("the fold's Total %s: want the -0 minimum and %d NaNs", foldJSON, sum.NaNs)
		}
		for path, total := range map[string]*api.RunSummary{"stored": &sum, "WAL": recs[0].Summary, "JSON": &viaJSON} {
			got, err := analytics.ComputeBinary(data, q, total)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(got)
			if !bytes.Equal(gotJSON, foldJSON) || !reflect.DeepEqual(got, fold) {
				t.Errorf("window %d, summary %s: given the summary\n %s\nfolding\n %s", windowNS, path, gotJSON, foldJSON)
			}
		}
	}
}

// TestStoredQuantilesAreExact pins the P50 and P95 saveRun stores for a
// 5 kHz browser run to stats.Quantile of the stored trace's values, bit
// for bit, and the whole stored summary, quantiles and both marks
// included, to the capture's own live summary.
func TestStoredQuantilesAreExact(t *testing.T) {
	b, st, res := capture5kHz(t)
	sum := st.Summary
	data, err := b.Workspace().Load(ArtifactCurrentTrace)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := trace.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	stored.Samples().Iter(func(_ int64, v float64) bool {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
		return true
	})
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"P50MA", sum.P50MA, stats.Quantile(vals, 0.5)},
		{"P95MA", sum.P95MA, stats.Quantile(vals, 0.95)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("stored %s %v, stats.Quantile of the stored trace %v", c.name, c.got, c.want)
		}
	}
	live := api.NewRunSummary(res.Current.Live())
	live.DurationNS, live.MirrorUploadBytes, live.DroppedLiveSamples = sum.DurationNS, sum.MirrorUploadBytes, sum.DroppedLiveSamples
	live.Rollup, live.ExactQuantiles = true, true
	if !reflect.DeepEqual(*sum, live) || math.Float64bits(sum.MeanMA) != math.Float64bits(live.MeanMA) ||
		math.Float64bits(sum.EnergyMAH) != math.Float64bits(live.EnergyMAH) {
		t.Errorf("stored summary %+v; beside its quantiles, the capture's stream summary is %+v", *sum, live)
	}
}

// capture5kHz measures one 5 kHz browser run — Chrome, two pages, four
// scrolls — on a fresh rig and returns its build, its published status
// and its result.
func capture5kHz(tb testing.TB) (*accessserver.Build, api.BuildStatus, *Result) {
	tb.Helper()
	r := newRig(tb)
	installStudyBrowsers(tb, r)
	ctx := context.Background()
	x, err := r.plat.StartExperimentSpec(ctx, api.ExperimentSpec{
		Node: "node1", Device: r.serial,
		Monitor: api.MonitorSpec{SampleRateHz: 5000},
		Workload: api.WorkloadSpec{
			Name:   "browser",
			Params: api.Params{"browser": "Chrome", "pages": 2, "scrolls": 4},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := x.Wait(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := r.plat.Access.Build(x.Build())
	if err != nil {
		tb.Fatal(err)
	}
	st, err := r.plat.Access.BuildStatus(b.ID)
	if err != nil {
		tb.Fatal(err)
	}
	return b, st, res
}

// saveRunAllocBound caps what saveRun allocates for a run, as a multiple
// of the bytes of its three stored traces (version 3, about a byte a
// sample of a capture): each encoding is grown once to a size estimate a
// little above what it needs, beside one chunk's scratch, and nothing
// else of the run's size is made. A CSV formatted on save would add about
// 20 times the stored bytes more.
const saveRunAllocBound = 2.0

// TestSaveRunAllocBound holds saveRun on a 167 499-sample run to
// saveRunAllocBound: finishing a build stores its traces and renders no
// export nobody has asked for.
func TestSaveRunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("buffer growth allocates twice under the race detector")
	}
	b, _, res := capture5kHz(t)
	if n := res.Current.Len(); n != 167499 {
		t.Fatalf("capture has %d samples, want 167499", n)
	}
	var stored int
	for _, name := range []string{ArtifactCurrentTrace, ArtifactDeviceCPU, ArtifactControllerCPU} {
		data, err := b.Workspace().Load(name)
		if err != nil {
			t.Fatal(err)
		}
		stored += len(data)
	}
	// The least of three saves: a stray allocation elsewhere in the
	// process can only add to one reading.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := saveRun(b, res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := saveRunAllocBound * float64(stored); float64(least) > limit {
		t.Fatalf("saveRun allocated %d bytes for %d bytes of stored traces (%.2f×), want at most %.1f×",
			least, stored, float64(least)/float64(stored), saveRunAllocBound)
	}
}

// BenchmarkSaveRun times a finished build's save path on one 167 499-
// sample run: encoding its three traces and storing them, the
// current.csv view, and the summary.
func BenchmarkSaveRun(b *testing.B) {
	build, _, res := capture5kHz(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := saveRun(build, res); err != nil {
			b.Fatal(err)
		}
	}
}
