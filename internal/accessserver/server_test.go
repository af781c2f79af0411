package accessserver

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
)

type rig struct {
	clk   *simclock.Virtual
	srv   *Server
	tb    *testBackend
	ctl   *controller.Controller
	admin *User
	exp   *User
	tst   *User
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	ctl, err := controller.New(clk, controller.Config{Name: "node1", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(clk, device.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(d); err != nil {
		t.Fatal(err)
	}
	if err := srv.Nodes.Register(NewLocalNode(ctl)); err != nil {
		t.Fatal(err)
	}
	admin, _ := srv.Users.Add("alice", RoleAdmin)
	exp, _ := srv.Users.Add("bob", RoleExperimenter)
	tst, _ := srv.Users.Add("tina", RoleTester)
	return &rig{clk: clk, srv: srv, tb: backedServer(srv), ctl: ctl, admin: admin, exp: exp, tst: tst}
}

// job creates a job that runs run under cons (see testBackend.createJob).
func (r *rig) job(user *User, name string, cons Constraints, run RunFunc) (Job, error) {
	return r.tb.createJob(r.srv, user, name, cons, run)
}

func noopJob(ctx *BuildContext, done func(error)) { done(nil) }

func TestRBACMatrix(t *testing.T) {
	cases := []struct {
		role Role
		perm Permission
		want bool
	}{
		{RoleAdmin, PermApprovePipeline, true},
		{RoleAdmin, PermManageUsers, true},
		{RoleExperimenter, PermCreateJob, true},
		{RoleExperimenter, PermApprovePipeline, false},
		{RoleExperimenter, PermManageNodes, false},
		{RoleTester, PermRunJob, false},
		{RoleTester, PermInteractSession, true},
		{RoleTester, PermViewConsole, false},
	}
	for _, c := range cases {
		if got := Allowed(c.role, c.perm); got != c.want {
			t.Errorf("Allowed(%v, %v) = %v, want %v", c.role, c.perm, got, c.want)
		}
	}
}

func TestUsersStore(t *testing.T) {
	u := New(simclock.NewVirtual(), Config{}).Users
	a, err := u.Add("alice", RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Add("alice", RoleTester); err == nil {
		t.Fatal("duplicate user accepted")
	}
	got, err := u.Authenticate(a.Token)
	if err != nil || got.Name != "alice" {
		t.Fatalf("authenticate: %+v, %v", got, err)
	}
	if _, err := u.Authenticate("bogus"); err == nil {
		t.Fatal("bogus token accepted")
	}
	if err := u.Remove("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Authenticate(a.Token); err == nil {
		t.Fatal("removed user still authenticates")
	}
}

func TestNodeApprovalGate(t *testing.T) {
	clk := simclock.NewVirtual()
	ctl, _ := controller.New(clk, controller.Config{Name: "rogue", Seed: 1})
	r := New(clk, Config{}).Nodes
	r.Approve("node7")
	if err := r.Register(NewLocalNode(ctl)); err == nil {
		t.Fatal("unapproved node registered")
	}
	ctl2, _ := controller.New(clk, controller.Config{Name: "node7", Seed: 2})
	if err := r.Register(NewLocalNode(ctl2)); err != nil {
		t.Fatal(err)
	}
}

func TestJobApprovalWorkflow(t *testing.T) {
	r := newRig(t)
	// Experimenter creates: needs approval.
	j, err := r.job(r.exp, "exp1", Constraints{Node: "node1"}, noopJob)
	if err != nil {
		t.Fatal(err)
	}
	if j.Approved {
		t.Fatal("experimenter job auto-approved")
	}
	if _, err := r.srv.Submit(r.exp, "exp1"); err == nil {
		t.Fatal("unapproved job ran")
	}
	// Experimenter cannot approve.
	if err := r.srv.ApproveJob(r.exp, "exp1"); err == nil {
		t.Fatal("experimenter approved a pipeline")
	}
	if err := r.srv.ApproveJob(r.admin, "exp1"); err != nil {
		t.Fatal(err)
	}
	b, err := r.srv.Submit(r.exp, "exp1")
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateSuccess {
		t.Fatalf("state = %v", b.State())
	}
	// Editing resets approval.
	if err := r.srv.EditJob(r.exp, "exp1", jobSpec("exp1", Constraints{Node: "node1"})); err != nil {
		t.Fatal(err)
	}
	if j, _ = r.srv.Job("exp1"); j.Approved || j.Revision != 2 {
		t.Fatalf("after the edit: approved=%v revision=%d, want unapproved revision 2", j.Approved, j.Revision)
	}
	if _, err := r.srv.Submit(r.exp, "exp1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("submit of the unapproved revision = %v, want ErrConflict", err)
	}
}

func TestTesterCannotCreateOrRun(t *testing.T) {
	r := newRig(t)
	if _, err := r.job(r.tst, "x", Constraints{Node: "node1"}, noopJob); err == nil {
		t.Fatal("tester created a job")
	}
	r.job(r.admin, "x", Constraints{Node: "node1"}, noopJob)
	if _, err := r.srv.Submit(r.tst, "x"); err == nil {
		t.Fatal("tester ran a job")
	}
}

func TestJobValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.job(r.admin, "", Constraints{Node: "node1"}, noopJob); err == nil {
		t.Fatal("nameless job accepted")
	}
	if _, err := r.job(r.admin, "j", Constraints{}, noopJob); err == nil {
		t.Fatal("nodeless job accepted")
	}
	if _, err := r.srv.CreateJob(r.admin, "j", jobSpec("unregistered", Constraints{Node: "node1"})); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job naming an unknown workload: %v, want ErrNotFound", err)
	}
	if _, err := r.job(r.admin, "spec:j", Constraints{Node: "node1"}, noopJob); !errors.Is(err, ErrInvalid) {
		t.Fatalf("job name with the reserved spec: prefix: %v, want ErrInvalid", err)
	}
	r.job(r.admin, "j", Constraints{Node: "node1"}, noopJob)
	if _, err := r.job(r.admin, "j", Constraints{Node: "node1"}, noopJob); err == nil {
		t.Fatal("duplicate job accepted")
	}
}

func TestBuildRunsAgainstNode(t *testing.T) {
	r := newRig(t)
	serial := r.ctl.ListDevices()[0]
	var sawDevices string
	r.job(r.admin, "probe", Constraints{Node: "node1", Device: serial},
		func(ctx *BuildContext, done func(error)) {
			out, err := ctx.Node.Exec("list_devices")
			sawDevices = out
			ctx.Logf("devices: %s", out)
			done(err)
		})
	b, err := r.srv.Submit(r.admin, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateSuccess {
		t.Fatalf("state = %v (%v)", b.State(), b.Err())
	}
	if sawDevices != serial {
		t.Fatalf("job saw %q", sawDevices)
	}
	if !strings.Contains(b.Log(), "devices: "+serial) {
		t.Fatalf("log = %q", b.Log())
	}
}

func TestDeviceLockSerializesBuilds(t *testing.T) {
	r := newRig(t)
	serial := r.ctl.ListDevices()[0]
	var order []int
	mkJob := func(name string, id int) {
		r.job(r.admin, name, Constraints{Node: "node1", Device: serial},
			func(ctx *BuildContext, done func(error)) {
				order = append(order, id)
				// Hold the device for 10 s of simulated time.
				r.clk.AfterFunc(10*time.Second, func() { done(nil) })
			})
	}
	mkJob("a", 1)
	mkJob("b", 2)
	ba, _ := r.srv.Submit(r.admin, "a")
	bb, _ := r.srv.Submit(r.admin, "b")
	if ba.State() != StateRunning {
		t.Fatalf("a state = %v", ba.State())
	}
	if bb.State() != StateQueued {
		t.Fatalf("b state = %v, want queued behind device lock", bb.State())
	}
	r.clk.Advance(11 * time.Second)
	if ba.State() != StateSuccess {
		t.Fatalf("a state = %v", ba.State())
	}
	if bb.State() != StateRunning && bb.State() != StateSuccess {
		t.Fatalf("b state = %v after lock release", bb.State())
	}
	r.clk.Advance(11 * time.Second)
	if bb.State() != StateSuccess {
		t.Fatalf("b final state = %v", bb.State())
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if bb.QueueTime() < 10*time.Second {
		t.Fatalf("b queue time = %v, want >= 10s", bb.QueueTime())
	}
}

func TestNodeLockConflictsWithDeviceLock(t *testing.T) {
	r := newRig(t)
	serial := r.ctl.ListDevices()[0]
	r.job(r.admin, "dev", Constraints{Node: "node1", Device: serial},
		func(ctx *BuildContext, done func(error)) {
			r.clk.AfterFunc(10*time.Second, func() { done(nil) })
		})
	r.job(r.admin, "node", Constraints{Node: "node1"},
		func(ctx *BuildContext, done func(error)) { done(nil) })
	r.srv.Submit(r.admin, "dev")
	bn, _ := r.srv.Submit(r.admin, "node")
	if bn.State() != StateQueued {
		t.Fatalf("whole-node job state = %v, want queued", bn.State())
	}
	r.clk.Advance(11 * time.Second)
	if bn.State() != StateSuccess {
		t.Fatalf("node job state = %v", bn.State())
	}
}

func TestExecutorLimit(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Executors: 1})
	tb := backedServer(srv)
	admin, _ := srv.Users.Add("a", RoleAdmin)
	for _, name := range []string{"node1", "node2"} {
		ctl, _ := controller.New(clk, controller.Config{Name: name, Seed: 1})
		srv.Nodes.Register(NewLocalNode(ctl))
	}
	mk := func(job, node string) {
		tb.createJob(srv, admin, job, Constraints{Node: node},
			func(ctx *BuildContext, done func(error)) {
				clk.AfterFunc(5*time.Second, func() { done(nil) })
			})
	}
	mk("j1", "node1")
	mk("j2", "node2")
	b1, _ := srv.Submit(admin, "j1")
	b2, _ := srv.Submit(admin, "j2")
	if b1.State() != StateRunning || b2.State() != StateQueued {
		t.Fatalf("states = %v, %v (one executor)", b1.State(), b2.State())
	}
	clk.Advance(6 * time.Second)
	clk.Advance(6 * time.Second)
	if b2.State() != StateSuccess {
		t.Fatalf("b2 = %v", b2.State())
	}
}

func TestBuildFailureRecorded(t *testing.T) {
	r := newRig(t)
	r.job(r.admin, "bad", Constraints{Node: "node1"},
		func(ctx *BuildContext, done func(error)) {
			done(errors.New("monsoon unreachable"))
		})
	b, _ := r.srv.Submit(r.admin, "bad")
	if b.State() != StateFailure {
		t.Fatalf("state = %v", b.State())
	}
	if b.Err() == nil || !strings.Contains(b.Log(), "monsoon unreachable") {
		t.Fatalf("err=%v log=%q", b.Err(), b.Log())
	}
}

func TestBuildPanicBecomesFailure(t *testing.T) {
	r := newRig(t)
	r.job(r.admin, "panics", Constraints{Node: "node1"},
		func(ctx *BuildContext, done func(error)) {
			panic("relay caught fire")
		})
	b, _ := r.srv.Submit(r.admin, "panics")
	if b.State() != StateFailure {
		t.Fatalf("state = %v", b.State())
	}
	if !strings.Contains(b.Err().Error(), "relay caught fire") {
		t.Fatalf("err = %v", b.Err())
	}
}

func TestWorkspaceRetention(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := New(clk, Config{Retention: 48 * time.Hour})
	admin, _ := srv.Users.Add("a", RoleAdmin)
	ctl, _ := controller.New(clk, controller.Config{Name: "node1", Seed: 1})
	srv.Nodes.Register(NewLocalNode(ctl))
	backedServer(srv).createJob(srv, admin, "j", Constraints{Node: "node1"},
		func(ctx *BuildContext, done func(error)) {
			ctx.Build.Workspace().Save("current.csv", []byte("data"))
			done(nil)
		})
	b, _ := srv.Submit(admin, "j")
	if _, err := b.Workspace().Load("current.csv"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(24 * time.Hour)
	if _, err := b.Workspace().Load("current.csv"); err != nil {
		t.Fatal("artifact purged before retention window")
	}
	clk.Advance(25 * time.Hour)
	if _, err := b.Workspace().Load("current.csv"); err == nil {
		t.Fatal("artifact survived retention window")
	}
	if b.Log() != "" {
		t.Fatal("log survived retention window")
	}
}

func TestLowCPUGate(t *testing.T) {
	r := newRig(t)
	serial := r.ctl.ListDevices()[0]
	// Saturate the controller: mirroring session + busy screen.
	r.ctl.DeviceMirroring(serial)
	dev, _ := r.ctl.Device(serial)
	dev.Framebuffer().SetActivity(35, 1)
	r.clk.Advance(time.Second)

	r.job(r.admin, "gated", Constraints{Node: "node1", RequireLowCPU: true}, noopJob)
	b, _ := r.srv.Submit(r.admin, "gated")
	if b.State() != StateQueued {
		t.Fatalf("state = %v, want queued behind CPU gate", b.State())
	}
	// Unload the controller and kick the queue.
	r.ctl.DeviceMirroring(serial) // toggle off
	r.clk.Advance(time.Second)
	r.srv.Kick()
	if b.State() != StateSuccess {
		t.Fatalf("state = %v after CPU drops", b.State())
	}
}

func TestCronFires(t *testing.T) {
	r := newRig(t)
	count := 0
	stop := r.srv.Cron("safety", 5*time.Minute, func() { count++ })
	r.clk.Advance(16 * time.Minute)
	if count != 3 {
		t.Fatalf("cron fired %d times, want 3", count)
	}
	if r.srv.CronRuns("safety") != 3 {
		t.Fatalf("CronRuns = %d", r.srv.CronRuns("safety"))
	}
	stop()
	r.clk.Advance(time.Hour)
	if count != 3 {
		t.Fatal("cron fired after stop")
	}
}

func TestQueueStats(t *testing.T) {
	r := newRig(t)
	if r.srv.QueueLength() != 0 || r.srv.Running() != 0 {
		t.Fatal("dirty initial queue")
	}
}

// TestQueuedBuildRunsApprovedRevision: a build is bound, when it is
// submitted, to the revision an admin approved. An edit made while the
// build waits in the queue must not change what it runs — that revision
// was never approved.
func TestQueuedBuildRunsApprovedRevision(t *testing.T) {
	r := newRig(t)
	serial := r.ctl.ListDevices()[0]
	dev := Constraints{Node: "node1", Device: serial}
	hold := func(ctx *BuildContext, done func(error)) {
		r.clk.AfterFunc(10*time.Second, func() { done(nil) })
	}
	r.tb.handle("approved-workload", noopJob)
	r.tb.handle("unreviewed-workload", noopJob)
	if _, err := r.job(r.admin, "holder", dev, hold); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.CreateJob(r.exp, "study", jobSpec("approved-workload", dev)); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.ApproveJob(r.admin, "study"); err != nil {
		t.Fatal(err)
	}

	if _, err := r.srv.Submit(r.admin, "holder"); err != nil { // takes the device lock
		t.Fatal(err)
	}
	b, err := r.srv.Submit(r.exp, "study")
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateQueued {
		t.Fatalf("study build is %v, want queued behind the device lock", b.State())
	}
	if err := r.srv.EditJob(r.exp, "study", jobSpec("unreviewed-workload", dev)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Submit(r.exp, "study"); !errors.Is(err, ErrConflict) {
		t.Fatalf("submit of the edited, unapproved revision = %v, want ErrConflict", err)
	}

	r.clk.Advance(11 * time.Second) // the lock frees
	if b.State() != StateSuccess {
		t.Fatalf("study build is %v (%v), want success", b.State(), b.Err())
	}
	if got, want := r.tb.started(), []string{"holder", "approved-workload"}; !slices.Equal(got, want) {
		t.Fatalf("pipelines started: %v, want %v — the queued build ran a revision nobody approved", got, want)
	}
}

// TestJobChangesNeedOwnerOrAdmin: editing a job un-approves it and
// deleting it fails its queued builds, so both are the owner's (or an
// admin's) to do, not any experimenter's.
func TestJobChangesNeedOwnerOrAdmin(t *testing.T) {
	methods := map[string]func(r *rig, user *User) error{
		"EditJob": func(r *rig, user *User) error {
			return r.srv.EditJob(user, "study", jobSpec("study", Constraints{Node: "node1"}))
		},
		"DeleteJob": func(r *rig, user *User) error { return r.srv.DeleteJob(user, "study") },
	}
	for method, call := range methods {
		for _, c := range []struct {
			who  string
			want error
		}{
			{"bystander", ErrForbidden},
			{"tester", ErrForbidden},
			{"owner", nil},
			{"admin", nil},
		} {
			r := newRig(t)
			bystander, _ := r.srv.Users.Add("carol", RoleExperimenter)
			users := map[string]*User{"bystander": bystander, "tester": r.tst, "owner": r.exp, "admin": r.admin}
			if _, err := r.job(r.exp, "study", Constraints{Node: "node1"}, noopJob); err != nil {
				t.Fatal(err)
			}
			if err := r.srv.ApproveJob(r.admin, "study"); err != nil {
				t.Fatal(err)
			}
			if err := call(r, users[c.who]); !errors.Is(err, c.want) {
				t.Errorf("%s by the %s: %v, want %v", method, c.who, err, c.want)
			}
			if j, err := r.srv.Job("study"); c.want != nil && (err != nil || !j.Approved || j.Revision != 1) {
				t.Errorf("refused %s by the %s still changed the job: %+v, %v", method, c.who, j, err)
			}
		}
	}
}

// Remove deletes a user.
func (u *Users) Remove(name string) error {
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	user, ok := u.byName[name]
	if !ok {
		return fmt.Errorf("accessserver: no user %q", name)
	}
	delete(u.byName, name)
	delete(u.byToken, user.Token)
	u.s.logStore(store.Record{T: store.TUserRemoved, Name: name})
	return nil
}
