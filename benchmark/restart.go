package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/store"
)

// crashed is the state a restart pass recovers from: the WAL directory
// of a backlog-shaped server that was synced and abandoned with a third
// of its builds unfinished.
type crashed struct {
	dir         string
	ids         []int
	appended    int64 // WAL records at the crash
	bytes       int64
	outstanding int // builds queued or running at the crash
}

// seedCrash runs the first life of the server. It is the restart
// workload's set-up.
func seedCrash(f *FleetInputs) (*crashed, error) {
	l, _, err := newLab(labConfig{nodes: f.Nodes, shape: backlogShape})
	if err != nil {
		return nil, err
	}
	bodies, err := marshalCampaigns(f)
	if err != nil {
		return nil, err
	}
	sub, err := submitFleet(l, f, bodies, nil, newPassResult())
	if err != nil {
		return nil, err
	}
	third := f.Builds() / 3
	unfinished := func() int { return l.srv.Running() + l.srv.QueueLength() }
	if _, err := driveIdle(l, nil, func() bool { return unfinished() <= third }); err != nil {
		return nil, err
	}
	c := &crashed{dir: l.dir, ids: sub.ids, outstanding: unfinished()}
	if err := l.st.Sync(); err != nil {
		return nil, err
	}
	c.appended, c.bytes = l.st.TotalAppends(), l.st.TotalAppendBytes()
	// The crash: the first process is abandoned here, its clock never
	// steps again.
	if err := l.close(); err != nil {
		return nil, err
	}
	return c, nil
}

// copyDir copies a store directory, so every recovery starts from the
// same bytes.
func copyDir(from string) (string, error) {
	to, err := workDir()
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return "", err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err != nil {
			src.Close()
			return "", err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
	}
	return to, nil
}

// recovery is one timed restart: store.Open, a new server with backend
// and nodes, AttachStore, and /readyz answering 200.
type recovery struct {
	lab   *lab
	stats accessserver.RecoveryStats
	total time.Duration
}

func recoverFrom(dir string, nodes []string, tr *tracer) (*recovery, error) {
	ref.tick() // recoveries are single long calls: take the host's speed right before and after
	defer ref.tick()
	sp := tr.begin(0, 0, "client", "recover")
	defer tr.end(sp)
	start := ref.mark()
	l, stats, err := newLab(labConfig{nodes: nodes, shape: backlogShape, dir: dir, tr: tr, parent: sp})
	if err != nil {
		return nil, err
	}
	_, code, err := l.client.do(http.MethodGet, "/readyz", nil, sp)
	if err != nil {
		l.close()
		return nil, fmt.Errorf("readyz: %w", err)
	}
	if code != http.StatusOK {
		l.close()
		return nil, fmt.Errorf("readyz answered %d after recovery", code)
	}
	total, _ := ref.since(start)
	return &recovery{lab: l, stats: stats, total: total}, nil
}

// restartRun is one pass of the restart workload: the crashed server's
// WAL is recovered on fresh copies, the last recovered server drains the
// outstanding builds, every status is read back, and the store is
// compacted and reopened from its snapshot. Seeding the crashed server is
// its set-up.
type restartRun struct {
	c    *crashed
	f    *FleetInputs
	sz   sizes
	tr   *tracer
	dirs []string // recovery copies, removed at close
}

func restartSetup(in *Inputs, sz sizes, tr *tracer) (pass, error) {
	c, err := seedCrash(&in.Restart)
	if err != nil {
		return nil, fmt.Errorf("seeding the crashed server: %w", err)
	}
	return &restartRun{c: c, f: &in.Restart, sz: sz, tr: tr}, nil
}

func (r *restartRun) close() {
	for _, d := range r.dirs {
		removeWorkDir(d)
	}
	removeWorkDir(r.c.dir)
}

func (r *restartRun) run() (*passResult, error) {
	res := newPassResult()
	c, f, sz, tr := r.c, r.f, r.sz, r.tr
	builds := f.Builds()

	proc := startProc()
	start := ref.mark()
	res.spanLo = tr.now()
	var rec *recovery
	for i := 0; i < sz.RestartRecovers; i++ {
		dir, err := copyDir(c.dir)
		if err != nil {
			return nil, err
		}
		r.dirs = append(r.dirs, dir)
		if rec != nil {
			rec.lab.close()
		}
		if rec, err = recoverFrom(dir, f.Nodes, tr); err != nil {
			return nil, err
		}
		res.op(nil)
		res.lats["op_ms"] = append(res.lats["op_ms"], float64(rec.total)/1e6)
		res.lats["store.open_ms"] = append(res.lats["store.open_ms"], float64(rec.lab.openDur)/1e6)
		res.lats["persist.attach_ms"] = append(res.lats["persist.attach_ms"], float64(rec.lab.attachDur)/1e6)
		res.check(rec.stats.Builds == builds, "recovered %d build records, want %d", rec.stats.Builds, builds)
		res.check(rec.stats.Requeued+rec.stats.Resumed == c.outstanding,
			"requeued %d + resumed %d, but %d builds were outstanding at the crash", rec.stats.Requeued, rec.stats.Resumed, c.outstanding)
		res.check(rec.stats.Failed == 0, "recovery failed %d builds", rec.stats.Failed)
		res.check(int64(rec.lab.replayed) == c.appended, "replayed %d WAL records, %d were appended", rec.lab.replayed, c.appended)
	}
	l := rec.lab
	defer l.close()

	// Re-drain the outstanding builds on the recovered server.
	lock0 := l.srv.SchedLockAcquisitions()
	drainStart := ref.mark()
	driveWall, err := driveIdle(l, tr, nil)
	if err != nil {
		return nil, err
	}
	drainWall, drainFactor := ref.since(drainStart)
	res.phase["builds_per_s"] = drainFactor
	lockAcq := l.srv.SchedLockAcquisitions() - lock0

	tally, states, err := readBack(l, c.ids, res)
	if err != nil {
		return nil, err
	}

	sp := tr.begin(0, 0, "store", "compact")
	compactStart := time.Now()
	err = l.srv.CompactStore()
	compact := time.Since(compactStart)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compacting: %w", err)
	}
	snapBytes := l.st.LastSnapshotBytes()
	if err := l.close(); err != nil {
		return nil, err
	}
	// Once more, from the snapshot: everything is finished, so nothing
	// may be requeued.
	again, err := recoverFrom(l.dir, f.Nodes, tr)
	if err != nil {
		return nil, fmt.Errorf("reopening from the snapshot: %w", err)
	}
	again.lab.close()
	res.wall, res.factor = ref.since(start)
	res.spanHi = tr.now()
	proc.stop(res, builds)

	res.vals["builds_per_s"] = float64(c.outstanding) / drainWall.Seconds()
	res.vals["recover_s"] = median(res.lats["op_ms"]) / 1e3
	res.vals["store.open_ms"] = median(res.lats["store.open_ms"])
	res.vals["persist.attach_ms"] = median(res.lats["persist.attach_ms"])
	res.vals["persist.attach_snapshot_ms"] = float64(again.lab.attachDur) / 1e6
	res.vals["sched.redrain_us_per_build"] = float64(driveWall) / 1e3 / float64(c.outstanding)
	res.vals["sched.lock_acq_per_build"] = float64(lockAcq) / float64(c.outstanding)
	res.vals["store.compact_ms"] = float64(compact) / 1e6
	res.vals["store.snapshot_bytes"] = float64(snapBytes)
	res.vals["store.appends_per_build"] = float64(c.appended) / float64(builds)
	res.vals["store.wal_bytes_per_build"] = float64(c.bytes) / float64(builds)
	res.vals["persist.requeued"] = float64(rec.stats.Requeued)
	res.vals["persist.resumed"] = float64(rec.stats.Resumed)
	res.lats["client.status_ms"] = scale(l.client.lat.get(routeStatus), 1e-3)
	res.lats["httpv1.status_handler_us"] = l.timing.lat.get(routeStatus)
	res.lats["snapshot.status_read_us"] = l.direct.get(routeStatus)
	res.vals["harness.backend_us_per_build"] = float64(l.backend.harnessNS.Load()+l.backend.compileNS.Load()) / 1e3 / float64(c.outstanding)

	res.check(again.stats.Builds == builds && again.stats.Requeued+again.stats.Resumed == 0,
		"from the snapshot: %d builds, %d requeued, %d resumed; want %d, 0, 0", again.stats.Builds, again.stats.Requeued, again.stats.Resumed, builds)
	res.check(tally["success"]+tally["aborted"] == builds, "read back %v, want %d terminal builds", tally, builds)
	res.ops(int64(builds), int64(tally["failure"]))
	res.check(tally["aborted"] == len(f.Aborts), "%d builds read aborted, want the generated %d", tally["aborted"], len(f.Aborts))
	for _, pos := range f.Aborts {
		if st := states[c.ids[pos]]; st != "aborted" {
			res.check(false, "build %d was cancelled before the crash but reads %q after it", c.ids[pos], st)
		}
	}
	res.check(l.timing.non2xx.Load() == 0 && l.client.non2xx.Load() == 0, "%d non-2xx responses", l.client.non2xx.Load())
	res.det["builds"] = int64(builds)
	res.det["outstanding"] = int64(c.outstanding)
	res.det["requeued"] = int64(rec.stats.Requeued)
	res.det["resumed"] = int64(rec.stats.Resumed)
	res.det["wal_records"] = c.appended
	res.det["wal_bytes"] = c.bytes
	res.det["succeeded"] = int64(tally["success"])
	res.det["aborted"] = int64(tally["aborted"])
	return res, nil
}

// restartProbes replays the crashed server's WAL records into a fresh
// store, batched as the server batches a campaign: the append side of
// the same bytes recovery reads.
func restartProbes(in *Inputs, sz sizes, tr *tracer, vals map[string]float64) error {
	c, err := seedCrash(&in.Restart)
	if err != nil {
		return err
	}
	defer removeWorkDir(c.dir)
	src, err := store.Open(c.dir)
	if err != nil {
		return err
	}
	_, recs := src.Load()
	src.Close()

	dir, err := workDir()
	if err != nil {
		return err
	}
	defer removeWorkDir(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	sp := tr.begin(0, 0, "store", "AppendBatch")
	defer tr.end(sp)
	start := time.Now()
	const batch = 51 // a 50-build campaign and its campaign record
	for i := 0; i < len(recs); i += batch {
		if err := st.AppendBatch(recs[i:min(i+batch, len(recs))]); err != nil {
			return err
		}
	}
	if err := st.Sync(); err != nil {
		return err
	}
	vals["store.append_us_per_record"] = float64(time.Since(start)) / 1e3 / float64(len(recs))
	return nil
}
