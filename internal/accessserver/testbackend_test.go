package accessserver

import (
	"fmt"
	"sort"
	"sync"

	"batterylab/internal/api"
)

// testBackend is the package's shared fake SpecBackend for job tests: a
// table from workload name to pipeline body. Constraints come straight
// from the spec, so a spec without a device compiles to a whole-node
// build. It records the workload of every pipeline that starts, in
// start order.
type testBackend struct {
	mu   sync.Mutex
	runs map[string]RunFunc
	ran  []string
}

func newTestBackend() *testBackend {
	return &testBackend{runs: map[string]RunFunc{}}
}

// handle registers (or replaces) a workload's body.
func (tb *testBackend) handle(workload string, run RunFunc) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.runs[workload] = run
}

// Compile implements SpecBackend.
func (tb *testBackend) Compile(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
	name := spec.Workload.Name
	if spec.Node == "" || name == "" {
		return Constraints{}, nil, fmt.Errorf("%w: spec needs a node and a workload", ErrInvalid)
	}
	tb.mu.Lock()
	run := tb.runs[name]
	tb.mu.Unlock()
	if run == nil {
		return Constraints{}, nil, fmt.Errorf("%w: no workload %q", ErrNotFound, name)
	}
	cons := Constraints{
		Node:          spec.Node,
		Device:        spec.Device,
		RequireLowCPU: spec.Constraints.RequireLowCPU,
		Fallback:      spec.Constraints.AllowFallback,
	}
	return cons, func(ctx *BuildContext, done func(error)) {
		tb.mu.Lock()
		tb.ran = append(tb.ran, name)
		tb.mu.Unlock()
		run(ctx, done)
	}, nil
}

// WorkloadNames implements SpecBackend.
func (tb *testBackend) WorkloadNames() []string {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	names := make([]string, 0, len(tb.runs))
	for n := range tb.runs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// started lists the workloads whose pipelines started, in start order.
func (tb *testBackend) started() []string {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([]string(nil), tb.ran...)
}

// jobSpec is the spec of a job that runs workload under cons.
func jobSpec(workload string, cons Constraints) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: cons.Node, Device: cons.Device,
		Workload:    api.WorkloadSpec{Name: workload},
		Constraints: api.ConstraintsSpec{RequireLowCPU: cons.RequireLowCPU, AllowFallback: cons.Fallback},
	}
}

// createJob registers run as a workload named like the job and creates
// the job from it: the spec-job form of "a job is this body under these
// constraints".
func (tb *testBackend) createJob(srv *Server, user *User, name string, cons Constraints, run RunFunc) (Job, error) {
	tb.handle(name, run)
	return srv.CreateJob(user, name, jobSpec(name, cons))
}

// backedServer installs a fresh testBackend on srv.
func backedServer(srv *Server) *testBackend {
	tb := newTestBackend()
	srv.SetSpecBackend(tb)
	return tb
}
