package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"batterylab/internal/api"
)

// backlogShape is the synthetic build of the backlog and restart
// workloads: 2 events and 6 samples on 6 ticks, so feeds and traces do
// next to nothing.
var backlogShape = buildShape{ticks: 6, samples: 6, events: 2}

// fleetSubmission is what submitting a FleetInputs over HTTP produced.
type fleetSubmission struct {
	ids       []int   // build ids in submission order
	campaigns []int   // campaign ids in submission order
	returned  []int64 // per build: tracer stamp when its POST returned
}

// marshalCampaigns pre-encodes the request bodies (set-up work: the
// timed region starts at the first byte on the wire).
func marshalCampaigns(f *FleetInputs) ([][]byte, error) {
	bodies := make([][]byte, len(f.Campaigns))
	for i, c := range f.Campaigns {
		b, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// submitFleet POSTs every campaign, then cancels the generated abort
// set while those builds are still queued.
func submitFleet(l *lab, f *FleetInputs, bodies [][]byte, tr *tracer, res *passResult) (*fleetSubmission, error) {
	sub := &fleetSubmission{}
	for i, body := range bodies {
		data, _, err := l.client.do(http.MethodPost, "/api/v1/campaigns", body, 0)
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", i, err)
		}
		var cr api.CampaignResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			return nil, fmt.Errorf("campaign %d response: %w", i, err)
		}
		sub.campaigns = append(sub.campaigns, cr.Campaign)
		sub.ids = append(sub.ids, cr.Builds...)
		if tr != nil {
			now := tr.now()
			for range cr.Builds {
				sub.returned = append(sub.returned, now)
			}
		}
	}
	for _, pos := range f.Aborts {
		_, _, err := l.client.do(http.MethodPost, fmt.Sprintf("/api/v1/builds/%d/cancel", sub.ids[pos]), nil, 0)
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("cancel build %d: %w", sub.ids[pos], err)
		}
	}
	return sub, nil
}

// readChunk is how many reads one throughput sample covers. Read
// throughput is reported as the median chunk's rate, not as total over
// wall: on a shared host, slow spells last a second or two, and a median
// of many short chunks shrugs them off where one long division does not.
const readChunk = 2000

// chunkRate turns a stream of finished operations into one throughput
// sample per readChunk operations.
type chunkRate struct {
	total int
	began refMark // the first operation's start
	start refMark // the current chunk's start
	rates []float64
}

func newChunkRate() *chunkRate {
	m := ref.mark()
	return &chunkRate{began: m, start: m}
}

// perSecond is the median chunk's rate (the overall rate when the
// operations did not fill one chunk), and the host's speed over all of
// them.
func (c *chunkRate) perSecond() (rate, factor float64) {
	work, factor := ref.since(c.began)
	if len(c.rates) == 0 {
		return float64(c.total) / work.Seconds(), factor
	}
	return median(c.rates), factor
}

// tick counts one finished operation.
func (c *chunkRate) tick() {
	if c.total++; c.total%readChunk == 0 {
		work, _ := ref.since(c.start)
		c.rates = append(c.rates, readChunk/work.Seconds())
		c.start = ref.mark()
	}
}

// readRounds is how often the backlog and restart workloads read every
// status straight from the handler, after the one round over HTTP.
const readRounds = 20

// readBack reads every build's status back, in id order. The first round
// goes over HTTP: it is the output check (the states it saw are
// returned) and the client's view of a status read. Then readRounds more
// go straight to the handler stack (see lab.serve), each checked against
// the first; their median chunk rate is this workload's reads_per_s —
// the read plane at this depth, without the loopback transport whose
// scheduling noise would otherwise be most of the number.
func readBack(l *lab, ids []int, res *passResult) (map[string]int, map[int]string, error) {
	tally := map[string]int{}
	states := make(map[int]string, len(ids))
	paths := make([]string, len(ids))
	for i, id := range ids {
		paths[i] = fmt.Sprintf("/api/v1/builds/%d", id)
		var st api.BuildStatus
		err := l.client.getJSON(paths[i], &st)
		res.op(err)
		if err != nil {
			return nil, nil, err
		}
		tally[st.State]++
		states[id] = st.State
	}
	changed := 0
	rate := newChunkRate()
	for r := 0; r < readRounds; r++ {
		for i, id := range ids {
			var st api.BuildStatus
			err := l.serve(paths[i], &st)
			rate.tick()
			res.op(err)
			if err != nil {
				return nil, nil, err
			}
			if st.State != states[id] {
				changed++
			}
		}
	}
	res.vals["reads_per_s"], res.phase["reads_per_s"] = rate.perSecond()
	res.check(changed == 0, "%d handler reads disagreed with the status read over HTTP", changed)
	return tally, states, nil
}

// lifecycleSpans turns the client's and the backend's stamps into the
// per-build waiting spans of the traced run.
func lifecycleSpans(tr *tracer, sub *fleetSubmission, sb *synthBackend) {
	if tr == nil {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i, id := range sub.ids {
		st := sb.stamps[id]
		if st == nil || st.doneCall == 0 {
			continue // aborted while queued
		}
		tr.record(int64(id), 0, layerWait, "sched.queue", sub.returned[i], st.runEnter)
		tr.record(int64(id), 0, layerWait, "node.run", st.runEnter, st.doneCall)
	}
}

// fleetLayerVals fills the per-layer figures every synthetic-fleet pass
// shares.
func fleetLayerVals(l *lab, res *passResult, builds int, finished int, driveWall time.Duration, lockAcq int64) {
	n := float64(builds)
	res.vals["sched.drive_us_per_build"] = float64(driveWall) / 1e3 / float64(finished)
	res.vals["sched.lock_acq_per_build"] = float64(lockAcq) / n
	res.vals["store.appends_per_build"] = float64(l.st.TotalAppends()) / n
	res.vals["store.wal_bytes_per_build"] = float64(l.st.TotalAppendBytes()) / n
	snap := l.srv.MetricsSnapshot()
	if m, ok := snap.Get("blab_wal_fsync_seconds"); ok && m.Hist != nil {
		res.vals["store.fsyncs"] = float64(m.Hist.Count)
		res.vals["store.fsync_ms_p50"] = m.Hist.P50 * 1e3
	}
	feedVals(res, snap)
	sb := l.backend
	res.vals["harness.backend_us_per_build"] = float64(sb.harnessNS.Load()+sb.compileNS.Load()) / 1e3 / n
	sb.mu.Lock()
	res.lats["sched.start_lag_us"] = append(res.lats["sched.start_lag_us"], sb.startLag...)
	sb.mu.Unlock()
	res.lats["client.submit_ms"] = scale(l.client.lat.get(routeSubmit), 1e-3)
	res.lats["client.status_ms"] = scale(l.client.lat.get(routeStatus), 1e-3)
	res.lats["httpv1.submit_handler_ms"] = scale(l.timing.lat.get(routeSubmit), 1e-3)
	res.lats["httpv1.status_handler_us"] = l.timing.lat.get(routeStatus)
	res.lats["snapshot.status_read_us"] = l.direct.get(routeStatus)
	res.lats["snapshot.nodes_read_us"] = l.direct.get(routeNodes)
}

// fleetOutcome checks the scheduler's own counters against what was
// submitted and records them as the deterministic block.
func fleetOutcome(l *lab, res *passResult, builds, aborts int) {
	snap := l.srv.MetricsSnapshot()
	get := func(name string, labels ...string) int64 { return int64(metricOf(snap, name, labels...)) }
	submitted := get("blab_builds_submitted_total")
	succeeded := get("blab_builds_finished_total", "result", "success")
	failed := get("blab_builds_finished_total", "result", "failure")
	aborted := get("blab_builds_finished_total", "result", "aborted")
	res.det["submitted"] = submitted
	res.det["succeeded"] = succeeded
	res.det["failed"] = failed
	res.det["aborted"] = aborted
	res.det["events_posted"] = get("blab_feed_events_posted_total")
	res.det["samples_posted"] = get("blab_feed_samples_posted_total")
	res.det["wal_appends"] = l.st.TotalAppends()
	res.check(submitted == int64(builds), "submitted %d builds, server counted %d", builds, submitted)
	res.check(submitted == succeeded+aborted, "submitted %d != succeeded %d + aborted %d", submitted, succeeded, aborted)
	res.ops(submitted, failed) // a build ending in failure is a failed operation
	res.check(aborted == int64(aborts), "aborted %d builds, want the generated %d", aborted, aborts)
	dropped := get("blab_feed_events_dropped_total") + get("blab_feed_samples_dropped_total")
	res.check(dropped == 0, "feeds dropped %d records", dropped)
	res.check(l.timing.non2xx.Load() == 0 && l.client.non2xx.Load() == 0, "%d non-2xx responses", l.client.non2xx.Load())
}

// backlogRun is one pass of the backlog workload: a deep queue arrives
// over HTTP, is drained on the virtual clock with nobody watching, and
// every status is read back.
type backlogRun struct {
	l      *lab
	f      *FleetInputs
	bodies [][]byte
	tr     *tracer
}

func backlogSetup(in *Inputs, sz sizes, tr *tracer) (pass, error) {
	f := &in.Backlog
	l, _, err := newLab(labConfig{nodes: f.Nodes, shape: backlogShape, tr: tr})
	if err != nil {
		return nil, err
	}
	b := &backlogRun{l: l, f: f, tr: tr}
	if b.bodies, err = marshalCampaigns(f); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *backlogRun) close() {
	b.l.close()
	removeWorkDir(b.l.dir)
}

func (b *backlogRun) run() (*passResult, error) {
	res := newPassResult()
	l, f, tr := b.l, b.f, b.tr
	builds := f.Builds()

	proc := startProc()
	lock0 := l.srv.SchedLockAcquisitions()
	start := ref.mark()
	res.spanLo = tr.now()
	sub, err := submitFleet(l, f, b.bodies, tr, res)
	if err != nil {
		return nil, err
	}
	_, res.phase["op_ms"] = ref.since(start) // the POSTs
	driveWall, err := driveIdle(l, tr, nil)
	if err != nil {
		return nil, err
	}
	buildWall, buildFactor := ref.since(start)
	res.phase["builds_per_s"] = buildFactor
	lockAcq := l.srv.SchedLockAcquisitions() - lock0

	lockR := l.srv.SchedLockAcquisitions()
	tally, states, err := readBack(l, sub.ids, res)
	if err != nil {
		return nil, err
	}
	res.vals["snapshot.read_lock_acq"] = float64(l.srv.SchedLockAcquisitions() - lockR)
	res.wall, res.factor = ref.since(start)
	res.spanHi = tr.now()
	proc.stop(res, builds)

	res.vals["builds_per_s"] = float64(builds) / buildWall.Seconds()
	res.lats["op_ms"] = scale(l.client.lat.get(routeSubmit), 1e-3)

	fleetOutcome(l, res, builds, len(f.Aborts))
	res.check(tally["success"]+tally["aborted"] == builds, "read back %v, want %d terminal builds", tally, builds)
	for _, pos := range f.Aborts {
		if st := states[sub.ids[pos]]; st != "aborted" {
			res.check(false, "build %d was cancelled while queued but reads %q", sub.ids[pos], st)
		}
	}
	res.check(res.vals["snapshot.read_lock_acq"] == 0, "status reads took the scheduler lock %v times", res.vals["snapshot.read_lock_acq"])
	fleetLayerVals(l, res, builds, tally["success"], driveWall, lockAcq)
	lifecycleSpans(tr, sub, l.backend)
	return res, nil
}

// directFleet submits a fleet through SubmitCampaign (no HTTP) and
// drains it: the traced run's look at the scheduler alone. It returns
// the wall inside SubmitCampaign and inside RunUntil.
func directFleet(f *FleetInputs, tr *tracer) (submit, drive time.Duration, err error) {
	l, _, err := newLab(labConfig{nodes: f.Nodes, shape: backlogShape})
	if err != nil {
		return 0, 0, err
	}
	defer removeWorkDir(l.dir)
	defer l.close()
	admin, err := l.srv.Users.Lookup("bench")
	if err != nil {
		return 0, 0, err
	}
	for _, c := range f.Campaigns {
		sp := tr.begin(0, 0, "sched", "SubmitCampaign")
		start := time.Now()
		_, _, err := l.srv.SubmitCampaign(admin, c)
		submit += time.Since(start)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
	}
	drive, err = driveIdle(l, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	if got := l.srv.MetricsSnapshot(); int(metricOf(got, "blab_builds_finished_total", "result", "success")) != f.Builds() {
		return 0, 0, fmt.Errorf("direct fleet: not every build succeeded")
	}
	return submit, drive, nil
}

// backlogProbes looks at the scheduler alone: the same campaigns through
// SubmitCampaign with no HTTP in front, at the full size and at a
// quarter of it. The ratio of the two drive walls gives the scaling
// exponent in queue depth (1 = linear).
func backlogProbes(in *Inputs, sz sizes, tr *tracer, vals map[string]float64) error {
	full := in.Backlog
	full.Aborts = nil
	quarter := FleetInputs{Nodes: full.Nodes, Campaigns: full.Campaigns[:len(full.Campaigns)/4]}
	submit, driveN, err := directFleet(&full, tr)
	if err != nil {
		return err
	}
	_, driveQ, err := directFleet(&quarter, nil)
	if err != nil {
		return err
	}
	vals["sched.submit_us_per_build"] = float64(submit) / 1e3 / float64(full.Builds())
	perN := driveN.Seconds() / float64(full.Builds())
	perQ := driveQ.Seconds() / float64(quarter.Builds())
	// wall(N)/wall(N/4) = 4^e; the per-build ratio removes the exact
	// build counts from it (campaign sizes vary, so N/4 is approximate).
	vals["sched.scaling_exponent"] = 1 + math.Log(perN/perQ)/math.Log(float64(full.Builds())/float64(quarter.Builds()))
	return nil
}
