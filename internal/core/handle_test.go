package core

// The handle over a fake port: the follower, the PhaseDone hold-back,
// the last-to-first Cancel and Wait, with no server behind them.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"batterylab/internal/api"
)

// fakeBuild is one build of a fakePort: what its feed carries, and how
// its follow ends once released.
type fakeBuild struct {
	events  []api.BuildEvent
	samples []api.SamplePoint
	state   string
	broken  error         // the follow's end once released; nil is a closed feed
	release chan struct{} // closed when the build settles
}

// fakePort is a Port whose builds settle when the test says so (settle)
// or when aborted, and which logs every abort in order.
type fakePort struct {
	mu     sync.Mutex
	builds []*fakeBuild // build id i+1
	aborts []int
}

func (f *fakePort) add(spec api.ExperimentSpec) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	at := time.Unix(100, 0).UnixNano()
	f.builds = append(f.builds, &fakeBuild{
		state: "running",
		events: []api.BuildEvent{
			// The terminal event comes first: the handle must still hold
			// it back until the samples have drained.
			{Node: spec.Node, Device: spec.Device, Phase: PhaseDone.String(), AtNS: at + 2},
			{Node: spec.Node, Device: spec.Device, Phase: PhaseMonitorArmed.String(), AtNS: at},
		},
		samples: []api.SamplePoint{{AtNS: at + 1, CurrentMA: 80}, {AtNS: at + 1, CurrentMA: 90}},
		release: make(chan struct{}),
	})
	return len(f.builds)
}

func (f *fakePort) build(id int) *fakeBuild {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.builds[id-1]
}

// settle ends build id in state, its follow ending with broken.
func (f *fakePort) settle(id int, state string, broken error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.builds[id-1]
	if b.state != "running" {
		return
	}
	b.state, b.broken = state, broken
	close(b.release)
}

func (f *fakePort) Submit(_ context.Context, spec api.ExperimentSpec) (int, error) {
	return f.add(spec), nil
}

func (f *fakePort) SubmitCampaign(_ context.Context, spec api.CampaignSpec) (int, []int, error) {
	var ids []int
	for _, ws := range spec.Experiments {
		ids = append(ids, f.add(ws))
	}
	return 1, ids, nil
}

// Follow hands the feed over the way the HTTP port does: events and
// samples on two goroutines of their own.
func (f *fakePort) Follow(ctx context.Context, id int, event func(api.BuildEvent), sample func(api.SamplePoint)) error {
	b := f.build(id)
	<-b.release
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, ev := range b.events {
			event(ev)
		}
	}()
	go func() {
		defer wg.Done()
		for _, pt := range b.samples {
			sample(pt)
		}
	}()
	wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return b.broken
}

func (f *fakePort) BuildStatus(_ context.Context, id int) (api.BuildStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.builds[id-1]
	return api.BuildStatus{ID: id, State: b.state, Error: "fake", FinishedAtNS: time.Unix(200, 0).UnixNano()}, nil
}

func (f *fakePort) Artifact(context.Context, int, string) ([]byte, error) {
	return nil, errors.New("fake: no artifacts")
}

func (f *fakePort) Abort(_ context.Context, id int) error {
	f.mu.Lock()
	f.aborts = append(f.aborts, id)
	f.mu.Unlock()
	f.settle(id, "aborted", nil)
	return nil
}

func (f *fakePort) abortLog() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.aborts)
}

func (f *fakePort) Drive(ctx context.Context, _ func() bool, done <-chan struct{}, cancel func()) error {
	return Await(ctx, done, cancel)
}

// fakeCampaign is three members, one per node.
func fakeCampaign() api.CampaignSpec {
	var spec api.CampaignSpec
	for i := range 3 {
		spec.Experiments = append(spec.Experiments, api.ExperimentSpec{
			Node: fmt.Sprintf("node%d", i+1), Device: "dev",
		})
	}
	return spec
}

func TestHandleBrokenFollow(t *testing.T) {
	port := &fakePort{}
	rec := &recorder{}
	x, err := StartExperiment(context.Background(), port, fakeCampaign().Experiments[0], rec)
	if err != nil {
		t.Fatal(err)
	}
	cut := errors.New("stream cut")
	port.settle(x.Build(), "success", cut)
	if _, err := x.Wait(context.Background()); !errors.Is(err, cut) {
		t.Fatalf("Wait = %v, want the follow's error", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	last := rec.phases[len(rec.phases)-1]
	if last.Phase != PhaseDone || !errors.Is(last.Err, cut) || !last.At.IsZero() {
		t.Fatalf("last event %v at %v with %v, want PhaseDone at the zero instant with the follow's error", last.Phase, last.At, last.Err)
	}
	if x.Phase() != PhaseDone {
		t.Fatalf("phase after Wait = %v", x.Phase())
	}
}

func TestHandleOnePhaseDoneLast(t *testing.T) {
	port := &fakePort{}
	log := map[string]*recorder{}
	for _, ws := range fakeCampaign().Experiments {
		log[ws.Node] = &recorder{}
	}
	obs := ObserverFuncs{
		Phase:  func(c PhaseChange) { log[c.Node].OnPhase(c) },
		Sample: func(s Sample) { log[s.Node].OnSample(s) },
	}
	cs, err := StartCampaign(context.Background(), port, fakeCampaign(), obs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 1, 3} {
		port.settle(id, "failure", nil)
	}
	runs, err := cs.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for node, rec := range log {
		rec.mu.Lock()
		n := 0
		for _, c := range rec.phases {
			if c.Phase == PhaseDone {
				n++
			}
		}
		if n != 1 || rec.phases[len(rec.phases)-1].Phase != PhaseDone || len(rec.samples) != 2 {
			t.Errorf("%s: %d PhaseDone among %d events after %d samples, want exactly one, last, after 2", node, n, len(rec.phases), len(rec.samples))
		}
		rec.mu.Unlock()
	}
	for i, r := range runs {
		if r.Index != i || r.Build != i+1 || r.Err == nil {
			t.Errorf("run %d: #%d build %d err %v, want the failure of build %d", i, r.Index, r.Build, r.Err, i+1)
		}
	}
}

func TestHandleCampaignCancelLastToFirst(t *testing.T) {
	port := &fakePort{}
	cs, err := StartCampaign(context.Background(), port, fakeCampaign())
	if err != nil {
		t.Fatal(err)
	}
	cs.Cancel()
	if got := port.abortLog(); !slices.Equal(got, []int{3, 2, 1}) {
		t.Fatalf("aborts %v, want last to first [3 2 1]", got)
	}
	runs, err := cs.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("run %d: %v, want ErrCanceled", i, r.Err)
		}
	}
}

func TestHandleCancelAfterSettle(t *testing.T) {
	port := &fakePort{}
	x, err := StartExperiment(context.Background(), port, fakeCampaign().Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	port.settle(x.Build(), "failure", nil)
	_, want := x.Wait(context.Background())
	x.Cancel()
	x.Cancel()
	if _, err := x.Wait(context.Background()); err == nil || err.Error() != want.Error() || errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait after a late Cancel = %v, want %v", err, want)
	}
	if st, _ := port.BuildStatus(context.Background(), x.Build()); st.State != "failure" {
		t.Fatalf("a late Cancel moved the build to %s", st.State)
	}
}

func TestHandleWaitCanceledCtx(t *testing.T) {
	port := &fakePort{}
	x, err := StartExperiment(context.Background(), port, fakeCampaign().Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Wait(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait on a canceled ctx = %v, want ErrCanceled", err)
	}
	if got := port.abortLog(); !slices.Equal(got, []int{1}) {
		t.Fatalf("aborts %v, want [1]", got)
	}
}
