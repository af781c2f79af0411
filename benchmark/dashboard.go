package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"batterylab/internal/accessserver/feedgw"
	"batterylab/internal/api"
)

// dashboardTicks is how many timer callbacks a dashboard build spreads
// its samples and events over.
const dashboardTicks = 40

// followStats is what the follower decoded.
type followStats struct {
	samples, frames, events int64
	ranks                   map[int]int // state rank read after each build's streams closed
	err                     error
}

// stream opens one of a build's streams, hands the body to read and
// closes it; the client wall is recorded under the stream's route class.
// open is how long the response headers took.
func (c *client) stream(path string, parent int64, read func(io.Reader) error) (open time.Duration, err error) {
	resp, sp, start, err := c.open(http.MethodGet, path, nil, parent)
	if err != nil {
		return 0, err
	}
	open = time.Since(start)
	defer func() {
		resp.Body.Close()
		c.lat.add(classify(http.MethodGet, path), time.Since(start))
		c.tr.end(sp)
		ref.tick()
	}()
	if resp.StatusCode != http.StatusOK {
		return open, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return open, read(resp.Body)
}

// readFrames decodes a binary sample stream to its end.
func readFrames(body io.Reader) (samples, frames int64, err error) {
	br := bufio.NewReader(body)
	for {
		pts, err := api.ReadSampleFrame(br)
		if err == io.EOF {
			return samples, frames, nil
		}
		if err != nil {
			return samples, frames, err
		}
		samples += int64(len(pts))
		frames++
	}
}

// readEvents decodes an NDJSON event stream to its end.
func readEvents(body io.Reader) (events int64, err error) {
	dec := json.NewDecoder(body)
	for {
		var ev api.BuildEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return events, err
		}
		events++
	}
}

// followSamples reads one build's binary sample stream over HTTP.
func followSamples(c *client, path string, parent int64) (samples, frames int64, open time.Duration, err error) {
	open, err = c.stream(path, parent, func(body io.Reader) (err error) {
		samples, frames, err = readFrames(body)
		return err
	})
	return samples, frames, open, err
}

// followEvents reads one build's NDJSON event stream over HTTP.
func followEvents(c *client, path string, parent int64) (events int64, open time.Duration, err error) {
	open, err = c.stream(path, parent, func(body io.Reader) (err error) {
		events, err = readEvents(body)
		return err
	})
	return events, open, err
}

// replayDirect replays one finished build's sample and event streams
// straight from the handler stack (see lab.serveWith) and decodes them.
func replayDirect(l *lab, id int) (samples, events int64, err error) {
	err = l.serveWith(fmt.Sprintf("/api/v1/builds/%d/samples", id), func(body []byte) (err error) {
		samples, _, err = readFrames(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	err = l.serveWith(fmt.Sprintf("/api/v1/builds/%d/events", id), func(body []byte) (err error) {
		events, err = readEvents(bytes.NewReader(body))
		return err
	})
	return samples, events, err
}

// follow is the dashboard's one streaming client: every build's samples,
// then its events, replay-plus-follow to close, in id order; then one
// status read, whose rank later reads must not fall below.
func follow(c *client, ids []int, tr *tracer, res *passResult) *followStats {
	fs := &followStats{ranks: make(map[int]int, len(ids))}
	for _, id := range ids {
		start := time.Now()
		sp := tr.begin(int64(id), 0, "client", "follow")
		n, frames, openS, err := followSamples(c, fmt.Sprintf("/api/v1/builds/%d/samples", id), sp)
		if err == nil {
			var ev int64
			var openE time.Duration
			ev, openE, err = followEvents(c, fmt.Sprintf("/api/v1/builds/%d/events", id), sp)
			fs.events += ev
			res.lats["client.stream_open_ms"] = append(res.lats["client.stream_open_ms"], float64(openS)/1e6, float64(openE)/1e6)
		}
		tr.end(sp)
		if err != nil {
			fs.err = fmt.Errorf("following build %d: %w", id, err)
			return fs
		}
		fs.samples += n
		fs.frames += frames
		res.lats["client.follow_ms"] = append(res.lats["client.follow_ms"], float64(time.Since(start))/1e6)
		var st api.BuildStatus
		if err := c.getJSON(fmt.Sprintf("/api/v1/builds/%d", id), &st); err != nil {
			fs.err = err
			return fs
		}
		fs.ranks[id] = stateRank(st.State)
	}
	return fs
}

// dashboardRun is one pass of the dashboard workload, every phase on its
// own so that no two busy goroutines compete for the two cores. Churn:
// the builds arrive and run with their chatty feeds, nobody watching.
// Follow: one client replays every build's sample and event streams over
// HTTP and reads its status. Reads: a seeded mix of status reads served
// straight from the handler stack (see lab.serve).
type dashboardRun struct {
	l      *lab
	in     *Inputs
	sz     sizes
	bodies [][]byte
	tr     *tracer
}

func dashboardSetup(in *Inputs, sz sizes, tr *tracer) (pass, error) {
	f := &in.Dashboard.Fleet
	l, _, err := newLab(labConfig{nodes: f.Nodes, shape: buildShape{ticks: dashboardTicks, samples: sz.DashSamples, events: sz.DashEvents}, tr: tr})
	if err != nil {
		return nil, err
	}
	d := &dashboardRun{l: l, in: in, sz: sz, tr: tr}
	if d.bodies, err = marshalCampaigns(f); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *dashboardRun) close() {
	d.l.close()
	removeWorkDir(d.l.dir)
}

func (d *dashboardRun) run() (*passResult, error) {
	res := newPassResult()
	l, in, sz, tr := d.l, d.in, d.sz, d.tr
	f := &in.Dashboard.Fleet
	builds := f.Builds()

	proc := startProc()
	lock0 := l.srv.SchedLockAcquisitions()
	start := ref.mark()
	res.spanLo = tr.now()
	sub, err := submitFleet(l, f, d.bodies, tr, res)
	if err != nil {
		return nil, err
	}
	driveWall, err := driveIdle(l, tr, nil)
	if err != nil {
		return nil, err
	}
	churn, churnFactor := ref.since(start)
	res.phase["builds_per_s"] = churnFactor
	lockAcq := l.srv.SchedLockAcquisitions() - lock0

	followStart := ref.mark()
	fs := follow(l.client, sub.ids, tr, res)
	if fs.err != nil {
		return nil, fs.err
	}
	followWall, _ := ref.since(followStart)
	res.ops(int64(2*builds), 0) // every followed stream is one operation

	// The gated figure: every build's streams once more, straight from
	// the handler stack, for the reason reads are served that way.
	var replayed, replayedEvents int64
	replayStart := ref.mark()
	for _, id := range sub.ids {
		t0 := ref.mark()
		n, ev, err := replayDirect(l, id)
		d, _ := ref.since(t0)
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("replaying build %d: %w", id, err)
		}
		replayed += n
		replayedEvents += ev
		res.lats["op_ms"] = append(res.lats["op_ms"], float64(d)/1e6)
	}
	_, res.phase["op_ms"] = ref.since(replayStart)

	var lockReads int64
	backwards := 0
	rate := newChunkRate()
	for _, op := range in.Dashboard.Reads {
		before := l.srv.SchedLockAcquisitions()
		switch op.Kind {
		case readStatus:
			id := sub.ids[op.Target]
			var st api.BuildStatus
			err = l.serve(fmt.Sprintf("/api/v1/builds/%d", id), &st)
			if err == nil && stateRank(st.State) < fs.ranks[id] {
				backwards++
			}
		case readNodes:
			var nodes []api.NodeInfo
			err = l.serve("/api/v1/nodes", &nodes)
			if err == nil && len(nodes) != len(f.Nodes) {
				err = fmt.Errorf("GET /nodes listed %d nodes, want %d", len(nodes), len(f.Nodes))
			}
		case readCampaign:
			var cs api.CampaignStatus
			err = l.serve(fmt.Sprintf("/api/v1/campaigns/%d", sub.campaigns[op.Target]), &cs)
			if err == nil && len(cs.Builds) != len(f.Campaigns[op.Target].Experiments) {
				err = fmt.Errorf("campaign %d lists %d builds", sub.campaigns[op.Target], len(cs.Builds))
			}
		case readMetrics:
			err = l.serve("/api/v1/metrics", nil)
		}
		rate.tick()
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("read %+v: %w", op, err)
		}
		// /metrics snapshots the scheduler's counters under its lock by
		// design; every other read must stay off it.
		if op.Kind != readMetrics {
			lockReads += l.srv.SchedLockAcquisitions() - before
		}
	}
	res.wall, res.factor = ref.since(start)
	res.spanHi = tr.now()
	proc.stop(res, builds)

	res.vals["builds_per_s"] = float64(builds) / churn.Seconds()
	res.vals["reads_per_s"], res.phase["reads_per_s"] = rate.perSecond()
	res.vals["httpv1.replay_samples_per_s"] = float64(fs.samples) / followWall.Seconds()
	res.vals["httpv1.stream_bytes_per_sample"] = float64(l.timing.bytes.get(routeSamples)) / float64(fs.samples+replayed)
	res.vals["snapshot.read_lock_acq"] = float64(lockReads)
	res.lats["httpv1.nodes_handler_us"] = l.timing.lat.get(routeNodes)
	res.lats["httpv1.metrics_handler_us"] = l.timing.lat.get(routeMetrics)

	fleetOutcome(l, res, builds, 0)
	res.det["samples_delivered"] = fs.samples
	res.det["events_delivered"] = fs.events
	res.det["reads"] = int64(len(in.Dashboard.Reads))
	res.check(fs.samples == res.det["samples_posted"], "follower decoded %d samples, feeds accepted %d", fs.samples, res.det["samples_posted"])
	res.check(fs.events == res.det["events_posted"], "follower decoded %d events, feeds accepted %d", fs.events, res.det["events_posted"])
	res.check(fs.samples == int64(builds*sz.DashSamples), "delivered %d samples, backend posted %d", fs.samples, builds*sz.DashSamples)
	res.check(replayed == fs.samples && replayedEvents == fs.events,
		"the handler replayed %d samples and %d events, the follower over HTTP decoded %d and %d", replayed, replayedEvents, fs.samples, fs.events)
	res.check(backwards == 0, "%d reads saw a build state move backwards", backwards)
	res.check(lockReads == 0, "status, node and campaign reads took the scheduler lock %d times", lockReads)
	fleetLayerVals(l, res, builds, builds, driveWall, lockAcq)
	lifecycleSpans(tr, sub, l.backend)
	return res, nil
}

// liveFollow is the traced run's look at the live path the sequential
// pass leaves out: the follower streams while the clock is driven, two
// busy goroutines on two cores. It reports how the server coalesced
// samples into frames and the samples per second the follower saw. The
// numbers swing by a fifth from run to run on a shared box, which is why
// no end-to-end metric rests on them.
func liveFollow(in *Inputs, sz sizes, tr *tracer, vals map[string]float64) error {
	p, err := dashboardSetup(in, sz, nil)
	if err != nil {
		return err
	}
	defer p.close()
	d := p.(*dashboardRun)
	res := newPassResult()
	sp := tr.begin(0, 0, "client", "live follow")
	defer tr.end(sp)
	start := time.Now()
	sub, err := submitFleet(d.l, &in.Dashboard.Fleet, d.bodies, nil, res)
	if err != nil {
		return err
	}
	followed := make(chan *followStats, 1)
	go func() { followed <- follow(d.l.client, sub.ids, nil, res) }()
	_, err = driveIdle(d.l, nil, nil)
	fs := <-followed
	if err != nil {
		return err
	}
	if fs.err != nil {
		return fs.err
	}
	if want := int64(in.Dashboard.Fleet.Builds() * sz.DashSamples); fs.samples != want {
		return fmt.Errorf("live follow decoded %d samples, want %d", fs.samples, want)
	}
	vals["feed_samples_per_s"] = float64(fs.samples) / time.Since(start).Seconds()
	vals["feedhub.samples_per_frame"] = float64(fs.samples) / float64(fs.frames)
	return nil
}

// settledDashboard assembles a dashboard-shaped server and drains it
// with nobody following: the finished feeds the replay probes re-read.
func settledDashboard(in *Inputs, sz sizes) (*lab, *fleetSubmission, error) {
	p, err := dashboardSetup(in, sz, nil)
	if err != nil {
		return nil, nil, err
	}
	d := p.(*dashboardRun)
	sub, err := submitFleet(d.l, &in.Dashboard.Fleet, d.bodies, nil, newPassResult())
	if err == nil {
		_, err = driveIdle(d.l, nil, nil)
	}
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d.l, sub, nil
}

// replay re-streams every finished build's samples through base and
// returns samples per second.
func replay(base, token string, ids []int, tr *tracer, name string) (float64, error) {
	c := newClient(base, token, nil)
	defer c.close()
	sp := tr.begin(0, 0, name, "replay")
	defer tr.end(sp)
	start := time.Now()
	var total int64
	for _, id := range ids {
		n, _, _, err := followSamples(c, fmt.Sprintf("/api/v1/builds/%d/samples", id), 0)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// dashboardProbes measures the stream layers one at a time: the live
// follow, then on a settled server the replay through a feed gateway and
// raw feed posts.
func dashboardProbes(in *Inputs, sz sizes, tr *tracer, vals map[string]float64) error {
	if err := liveFollow(in, sz, tr, vals); err != nil {
		return err
	}
	l, sub, err := settledDashboard(in, sz)
	if err != nil {
		return err
	}
	defer removeWorkDir(l.dir)
	defer l.close()

	gw := feedgw.New(l.ts.URL)
	gts := httptest.NewServer(gw.Handler())
	vals["feedgw.replay_samples_per_s"], err = replay(gts.URL, l.token, sub.ids, tr, "feedgw")
	gts.Close()
	if err != nil {
		return err
	}
	if m, ok := gw.MetricsRegistry().Snapshot().Get("blab_feedgw_reconnects_total"); ok {
		vals["feedgw.reconnects"] = m.Value
	}

	vals["feedhub.post_ns_per_sample"] = feedPostProbe(l, sz.ProbeSamples, tr)
	return nil
}

// feedPostProbe posts straight into hub feeds with one reader parked on
// each, and returns ns per accepted sample.
func feedPostProbe(l *lab, n int, tr *tracer) float64 {
	hub := l.srv.FeedHub()
	sp := tr.begin(0, 0, "feedhub", "PostSample")
	defer tr.end(sp)
	const perFeed = 8192 // half the feed's sample cap: nothing is dropped
	var spent time.Duration
	posted := 0
	for id := 1 << 30; posted < n; id++ {
		feed := hub.Create(id, 0)
		_, _, changed := feed.SamplesSince(0)
		parked := make(chan struct{})
		go func() { <-changed; close(parked) }()
		start := time.Now()
		for i := 0; i < perFeed; i++ {
			feed.PostSample(api.SamplePoint{AtNS: int64(i), CurrentMA: 100})
		}
		spent += time.Since(start)
		<-parked
		posted += perFeed
		hub.Close(id)
		hub.Remove(id)
	}
	return float64(spent) / float64(posted)
}
