package remote_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/remote"
	"batterylab/internal/simclock"
)

// shedBackend compiles every spec into a build that never completes,
// so submissions pile up in flight and admission control engages.
type shedBackend struct{}

func (shedBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	return accessserver.Constraints{Node: spec.Node, Device: spec.Device},
		func(ctx *accessserver.BuildContext, done func(error)) {}, nil
}
func (shedBackend) WorkloadNames() []string { return []string{"hold"} }

// TestRemoteOverloaded: admission sheds cross the wire as the typed
// overloaded error (HTTP 429) whose envelope carries the shed_reason —
// and admins bypass admission entirely.
// The in-cap builds are submitted server-side so the test holds no
// event streams open (a shed submission never creates a session).
func TestRemoteOverloaded(t *testing.T) {
	clk := simclock.NewVirtual()
	srv := accessserver.New(clk, accessserver.Config{
		Executors:        1,
		HeartbeatEvery:   5 * time.Second,
		PendingTimeout:   time.Hour,
		OwnerInFlightCap: 2,
	})
	srv.SetSpecBackend(shedBackend{})
	user, err := srv.Users.Add("tester", accessserver.RoleExperimenter)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	closeOnCleanup(t, ts)

	spec := api.ExperimentSpec{
		Node: "pi-1", Device: "pixel4-a",
		Workload: api.WorkloadSpec{Name: "hold"},
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.SubmitSpec(user, spec); err != nil {
			t.Fatalf("submission %d within the cap: %v", i, err)
		}
	}

	client, err := remote.Dial(ts.URL, user.Token)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.StartExperiment(context.Background(), spec)
	if err == nil {
		t.Fatal("third in-flight submission should shed")
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeOverloaded {
		t.Fatalf("err = %v, want api code %s", err, api.CodeOverloaded)
	}
	if apiErr.ShedReason != accessserver.ShedOwnerCap {
		t.Fatalf("shed_reason = %q, want %q", apiErr.ShedReason, accessserver.ShedOwnerCap)
	}

	// Admins bypass admission: the same cap does not shed them.
	admin, err := srv.Users.Add("op", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.SubmitSpec(admin, spec); err != nil {
			t.Fatalf("admin submission %d should bypass admission: %v", i, err)
		}
	}
}
