package accessserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"batterylab/internal/simclock"
)

// The access plane's cost as counts a machine cannot change: what a clock
// driver's poll, an idle critical section and an artifact's way through
// the workspace allocate.

// TestPollAndIdleSectionAllocateNothing: a driver polls Running and
// QueueLength once per clock step, 167 499 steps an experiment, and every
// section ends in leaveSection. None of the three may allocate, and the
// polls may not take the scheduler lock.
func TestPollAndIdleSectionAllocateNothing(t *testing.T) {
	r := newRig(t)
	before := r.srv.SchedLockAcquisitions()
	for name, fn := range map[string]func(){
		"Running":     func() { r.srv.Running() },
		"QueueLength": func() { r.srv.QueueLength() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	if got := r.srv.SchedLockAcquisitions(); got != before {
		t.Errorf("polling took the scheduler lock %d times", got-before)
	}
	if n := testing.AllocsPerRun(100, func() { r.srv.mu.Lock(); r.srv.mu.Unlock() }); n != 0 {
		t.Errorf("a section that logs and marks nothing allocates %v times at its exit", n)
	}
}

// TestPolledCountsUnderChurn: one goroutine takes builds through claim and
// release while eight poll. A poll never sees a count no section left
// behind, and at quiescence the polled values are the locked ones.
func TestPolledCountsUnderChurn(t *testing.T) {
	const builds, executors = 200, 3
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: executors})
	srv.SetSpecBackend(slowBackend(clk, time.Second))
	if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 8; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := srv.Running(); n < 0 || n > executors {
					t.Errorf("Running() = %d with %d executors", n, executors)
					return
				}
				if n := srv.QueueLength(); n < 0 || n > builds {
					t.Errorf("QueueLength() = %d of %d builds", n, builds)
					return
				}
			}
		}()
	}
	var all []*Build
	for i := 0; i < builds; i++ {
		b, err := srv.SubmitSpec(admin, testSpec("node1", "dev"+string(rune('1'+i%3))))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b)
		if i%4 == 3 {
			clk.Advance(time.Second) // the running builds finish, the next are claimed
		}
	}
	if srv.Running() == 0 || srv.QueueLength() == 0 {
		t.Errorf("mid-run: %d running, %d queued; want both busy", srv.Running(), srv.QueueLength())
	}
	drainServer(t, clk, all)
	close(stop)
	pollers.Wait()

	srv.mu.Lock()
	running, queued := srv.running, int(srv.m.queued)
	srv.mu.Unlock()
	if srv.Running() != running || srv.QueueLength() != queued || running != 0 || queued != 0 {
		t.Errorf("polled %d running / %d queued, the scheduler holds %d / %d, want 0 / 0",
			srv.Running(), srv.QueueLength(), running, queued)
	}
	for name, drift := range map[string]func() error{"queue": srv.QueueDrift, "census": srv.CensusDrift, "lifecycle": srv.LifecycleDrift} {
		if err := drift(); err != nil {
			t.Errorf("%s drift: %v", name, err)
		}
	}
}

// TestWorkspaceHandsOver pins the artifact contract: Save keeps the slice
// it is given, every Load is that same array, and a megabyte makes the
// round trip without being copied.
func TestWorkspaceHandsOver(t *testing.T) {
	w := NewWorkspace()
	body := make([]byte, 1<<20, 2<<20)
	w.Save("current.trace", body)
	a, err := w.Load("current.trace")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.Load("current.trace")
	if &a[0] != &body[0] || &b[0] != &body[0] || len(a) != len(body) {
		t.Error("Load is not a view of the array Save was given")
	}
	if cap(a) != len(a) {
		t.Errorf("view has capacity %d beyond its %d bytes: an append would write into the stored array", cap(a), len(a))
	}
	if n := testing.AllocsPerRun(20, func() {
		w.Save("current.trace", body)
		w.Load("current.trace")
	}); n > 2 {
		t.Errorf("Save + Load of a 1 MB artifact allocates %v times, want at most 2", n)
	}
}

// TestArtifactReadSurvivesPurge: retention purges a workspace while the
// artifact handler is still writing a view out of it. Under -race this is
// the check that handing views out instead of copies shares nothing
// written.
func TestArtifactReadSurvivesPurge(t *testing.T) {
	v := newV1Rig(t)
	b, err := v.srv.Build(v.doneBuild)
	if err != nil {
		t.Fatal(err)
	}
	want := stubTraceBytes()
	h := v.srv.Handler()
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 50; k++ {
				req := httptest.NewRequest("GET", fmt.Sprintf("/api/v1/builds/%d/artifacts/current.trace", b.ID), nil)
				req.Header.Set("Authorization", "Bearer "+v.admin.Token)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				// Purged a moment ago is a 404; anything served is whole.
				if rec.Code == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("served %d bytes that are not the artifact", rec.Body.Len())
					return
				}
			}
		}()
	}
	for k := 0; k < 50; k++ {
		b.Workspace().purge()
		b.Workspace().Save("current.trace", stubTraceBytes())
	}
	readers.Wait()
}
