package accessserver

import (
	"errors"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// ledgerLab is a server with credits enforced and node1 up, whose builds
// take the device time their spec's duration_ms names on a virtual
// clock: the ledger moves only through the server's own paths — grants,
// hosting flushes and the charge a finished build pays.
type ledgerLab struct {
	clk *simclock.Virtual
	srv *Server
}

func newLedgerLab(t *testing.T) *ledgerLab {
	t.Helper()
	clk := simclock.NewVirtual()
	srv := New(clk, Config{})
	srv.SetCreditEnforcement(true)
	srv.SetSpecBackend(funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		d := time.Duration(spec.Workload.Params["duration_ms"].(float64)) * time.Millisecond
		return Constraints{Node: spec.Node, Device: spec.Device}, func(ctx *BuildContext, done func(error)) {
			clk.AfterFunc(d, func() { done(nil) })
		}, nil
	}))
	if err := srv.Nodes.Register(staticNode{name: "node1"}); err != nil {
		t.Fatal(err)
	}
	return &ledgerLab{clk: clk, srv: srv}
}

// user adds an experimenter.
func (l *ledgerLab) user(t *testing.T, name string) *User {
	t.Helper()
	u, err := l.srv.Users.Add(name, RoleExperimenter)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// host makes owner node1's host for d — its heartbeats attest online
// time, flushed to the ledger in contributionFlushEvery lumps — and then
// takes the node back, so runs on it earn nothing more.
func (l *ledgerLab) host(t *testing.T, owner string, d time.Duration) {
	t.Helper()
	if err := l.srv.MonitorNode("node1"); err != nil {
		t.Fatal(err)
	}
	l.srv.SetNodeOwner("node1", owner)
	l.clk.Advance(d)
	l.srv.SetNodeOwner("node1", "")
}

// run submits one of u's builds taking d of device time and runs it to
// its end; a finished build is charged what it used.
func (l *ledgerLab) run(t *testing.T, u *User, d time.Duration) error {
	t.Helper()
	spec := testSpec("node1", "dev1")
	spec.Workload.Params = api.Params{"duration_ms": float64(d.Milliseconds())}
	b, err := l.srv.SubmitSpec(u, spec)
	if err != nil {
		return err
	}
	drainServer(t, l.clk, []*Build{b})
	if b.State() != StateSuccess {
		t.Fatalf("build %d: %s (%v)", b.ID, b.State(), b.Err())
	}
	return nil
}

func TestLedgerContributionEarnsCredits(t *testing.T) {
	l := newLedgerLab(t)
	l.user(t, "alice")
	l.host(t, "alice", 2*time.Hour)
	if got := l.srv.Ledger.Balance("alice"); got != 2*ContributionRate {
		t.Fatalf("balance after hosting 2 h = %v, want %v", got, 2*ContributionRate)
	}
	h := l.srv.Ledger.History("alice")
	if len(h) != 8 || h[0].Reason != "hosting node1 for 15m0s" {
		t.Fatalf("history = %+v, want 8 flushes of 15 minutes", h)
	}
}

func TestLedgerChargeAndInsufficient(t *testing.T) {
	l := newLedgerLab(t)
	bob := l.user(t, "bob")
	l.srv.Ledger.Grant("bob", 10, "starter grant")
	if !l.srv.Ledger.CanAfford("bob", 10*time.Minute) {
		t.Fatal("bob should afford 10 minutes")
	}
	if err := l.run(t, bob, 7*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := l.srv.Ledger.Balance("bob"); got != 3 {
		t.Fatalf("balance = %v", got)
	}
	if err := l.run(t, bob, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := l.run(t, bob, time.Minute); !errors.Is(err, ErrInsufficientCredits) {
		t.Fatalf("submit with no credits left = %v, want ErrInsufficientCredits", err)
	}
	if got := l.srv.Ledger.Balance("bob"); got != 0 {
		t.Fatalf("refused submit moved the balance: %v", got)
	}
}

func TestLedgerHistory(t *testing.T) {
	l := newLedgerLab(t)
	carol := l.user(t, "carol")
	l.srv.Ledger.Grant("carol", 5, "grant")
	if err := l.run(t, carol, time.Minute); err != nil {
		t.Fatal(err)
	}
	h := l.srv.Ledger.History("carol")
	if len(h) != 2 || h[0].Delta != 5 || h[1].Delta != -1 {
		t.Fatalf("history = %+v", h)
	}
	// History is a copy.
	h[0].Delta = 999
	if l.srv.Ledger.History("carol")[0].Delta != 5 {
		t.Fatal("history aliases internal state")
	}
}

func TestLedgerUnknownUserZero(t *testing.T) {
	l := New(simclock.NewVirtual(), Config{}).Ledger
	if l.Balance("nobody") != 0 {
		t.Fatal("unknown user has credits")
	}
	if l.CanAfford("nobody", time.Minute) {
		t.Fatal("unknown user can afford")
	}
}

func TestLedgerEconomyLoop(t *testing.T) {
	// A member hosts a vantage point for a day and spends the proceeds
	// on measurements: 24 h × 4 credits/h = 96 device-minutes.
	l := newLedgerLab(t)
	dave := l.user(t, "dave")
	l.host(t, "dave", 24*time.Hour)
	minutes := 0
	for l.srv.Ledger.CanAfford("dave", time.Minute) {
		if err := l.run(t, dave, time.Minute); err != nil {
			t.Fatal(err)
		}
		minutes++
	}
	if minutes != 96 {
		t.Fatalf("bought %d minutes, want 96", minutes)
	}
}
