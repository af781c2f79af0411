package accessserver

import (
	"fmt"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// The events of a FuzzSchedScript script: each is two bytes, an op (its
// value modulo opCount) and an argument.
const (
	opSubmit   = iota // a pinned build: node arg%5 (4 is "ghost", never registered), owner bit 3
	opFallback        // the same with fallback allowed
	opCampaign        // 2 + arg>>4%3 builds from node arg%5 on, capped at arg>>2%3 running (0: uncapped)
	opAbort           // build arg%issued + 1, as an admin
	opKill            // node arg%4 stops answering (FlakyNode)
	opRevive          // node arg%4 answers again
	opRegister        // node arg%4 registers: monitored, or through the bare registry with bit 3
	opRemove          // node arg%4 is removed by an admin, or leaves the bare registry with bit 3
	opDrain           // node arg%4 is drained
	opUndrain         // node arg%4 is undrained
	opAdvance         // the clock moves arg%64 + 1 quarter seconds
	opStep            // the clock fires its next deadline
	opCount
)

// scriptNodes are the vantage points a script may name: "d" starts
// unregistered, "ghost" never registers.
var scriptNodes = [...]string{"a", "b", "c", "d", "ghost"}

// ev encodes one event.
func ev(op, arg byte) []byte { return []byte{op, arg} }

// script joins events.
func script(evs ...[]byte) []byte {
	var out []byte
	for _, e := range evs {
		out = append(out, e...)
	}
	return out
}

// secs is the opAdvance of n seconds (n ≤ 16).
func secs(n int) []byte { return ev(opAdvance, byte(4*n-1)) }

// schedScriptSeeds are the hand-written scripts of census_sim_test.go
// in this vocabulary, and one more.
var schedScriptSeeds = [][]byte{
	// The churn script: builds spread over a, b and c, half with
	// fallback; a build running on a is aborted before a dies (and later
	// comes back), b dies under running builds, one of b's builds is
	// aborted in its backoff, then b is removed with builds queued for it.
	script(
		ev(opSubmit, 0), ev(opFallback, 1), ev(opSubmit, 2), ev(opFallback, 0), ev(opSubmit, 1), ev(opFallback, 2),
		secs(1), ev(opSubmit, 8), ev(opFallback, 9), ev(opSubmit, 10),
		secs(7), ev(opAbort, 0), ev(opKill, 0),
		secs(4), ev(opKill, 1), secs(5), ev(opStep, 0), ev(opAbort, 4), ev(opAbort, 7),
		secs(16), ev(opRevive, 0), secs(16), ev(opRemove, 1), secs(16), secs(16),
	),
	// The admin script: a campaign and pinned builds, ghost builds that
	// age out, a drain and undrain, aborts of a queued and a running
	// build, a node entering through the bare registry, a removal under
	// queued builds and a return through the registry, a monitored node
	// leaving the registry.
	script(
		ev(opSubmit, 0), ev(opSubmit, 1), ev(opSubmit, 2), ev(opFallback, 3), ev(opSubmit, 4),
		ev(opCampaign, 0x12), ev(opSubmit, 2), ev(opSubmit, 2),
		secs(3), ev(opDrain, 0), secs(4), ev(opAbort, 5), ev(opAbort, 0),
		secs(2), ev(opRegister, 8|3), secs(1), ev(opDrain, 3), secs(1), ev(opUndrain, 0),
		secs(4), ev(opRemove, 2), secs(16), ev(opKill, 1), secs(9), ev(opRegister, 8|2),
		secs(2), ev(opRemove, 8|3), secs(16), secs(16), secs(16), secs(16), secs(16), secs(16), secs(16),
	),
	// A fallback flood while every pinned node is dead or draining.
	script(
		ev(opKill, 0), ev(opDrain, 1), ev(opFallback, 0), ev(opFallback, 1), ev(opCampaign, 0x35),
		ev(opRegister, 3), ev(opFallback, 4), secs(8), ev(opRevive, 0), ev(opUndrain, 1), secs(16),
	),
}

// FuzzSchedScript plays a script of scheduler events — submits, aborts,
// nodes dying and coming back, joining and leaving, drained and
// undrained, the clock moving — against a server on a virtual clock,
// durable to a store in a temporary directory, and runs the five drift
// oracles after every event. It asks nothing of liveness: a build queued
// for a drained node waits as long as the drain lasts.
func FuzzSchedScript(f *testing.F) {
	for _, seed := range schedScriptSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, events []byte) {
		if len(events) > 256 {
			events = events[:256]
		}
		p := newScriptPlay(t)
		for i := 0; i+1 < len(events); i += 2 {
			what := p.do(events[i], events[i+1])
			p.check(fmt.Sprintf("event %d (%s)", i/2, what))
		}
	})
}

// scriptPlay is one FuzzSchedScript run.
type scriptPlay struct {
	t      *testing.T
	clk    *simclock.Virtual
	srv    *Server
	admin  *User
	owners [2]*User
	nodes  [4]*FlakyNode
	builds []*Build
}

func newScriptPlay(t *testing.T) *scriptPlay {
	t.Helper()
	cfg := faultCfg()
	cfg.Executors, cfg.OwnerRunCap = 3, 2
	p := &scriptPlay{t: t, clk: simclock.NewVirtual()}
	p.srv = New(p.clk, cfg)
	p.srv.SetSpecBackend(hangingBackend{clk: p.clk})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := p.srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if p.admin, err = p.srv.Users.Add("root", RoleAdmin); err != nil {
		t.Fatal(err)
	}
	p.owners[0] = p.admin
	if p.owners[1], err = p.srv.Users.Add("bo", RoleExperimenter); err != nil {
		t.Fatal(err)
	}
	for i := range p.nodes {
		p.nodes[i] = NewFlakyNode(fakeVP{name: scriptNodes[i]})
		if i < 3 {
			if err := p.srv.RegisterNode(p.nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// spec is a build pinned to node i's device.
func (p *scriptPlay) spec(i int, fallback bool) api.ExperimentSpec {
	name := scriptNodes[i%len(scriptNodes)]
	return api.ExperimentSpec{Node: name, Device: "dev-" + name,
		Workload: api.WorkloadSpec{Name: "hang"}, Constraints: api.ConstraintsSpec{AllowFallback: fallback}}
}

// do plays one event and describes it. Refusals (an abort of a settled
// build, a drain of an unknown node, a shed submission) are part of the
// script; the oracles judge what the server made of them.
func (p *scriptPlay) do(op, arg byte) string {
	node, name := int(arg)%len(p.nodes), scriptNodes[int(arg)%len(p.nodes)]
	plain := arg&8 != 0
	var err error
	switch op % opCount {
	case opSubmit, opFallback:
		var b *Build
		if b, err = p.srv.SubmitSpec(p.owners[arg>>3&1], p.spec(int(arg), op%opCount == opFallback)); err == nil {
			p.builds = append(p.builds, b)
		}
		return fmt.Sprintf("submit to %s, fallback %v: %v", scriptNodes[int(arg)%len(scriptNodes)], op%opCount == opFallback, err)
	case opCampaign:
		cs := api.CampaignSpec{MaxConcurrent: int(arg>>2) % 3}
		for i := range 2 + int(arg>>4)%3 {
			cs.Experiments = append(cs.Experiments, p.spec(int(arg)+i, i%2 == 1))
		}
		var builds []*Build
		if _, builds, err = p.srv.SubmitCampaign(p.admin, cs); err == nil {
			p.builds = append(p.builds, builds...)
		}
		return fmt.Sprintf("campaign of %d, cap %d: %v", len(cs.Experiments), cs.MaxConcurrent, err)
	case opAbort:
		if len(p.builds) == 0 {
			return "abort with no build"
		}
		id := p.builds[int(arg)%len(p.builds)].ID
		return fmt.Sprintf("abort %d: %v", id, p.srv.Abort(p.admin, id))
	case opKill:
		p.nodes[node].Kill()
		return "kill " + name
	case opRevive:
		p.nodes[node].Revive()
		return "revive " + name
	case opRegister:
		if plain {
			err = p.srv.Nodes.Register(p.nodes[node])
		} else {
			err = p.srv.RegisterNode(p.nodes[node])
		}
		return fmt.Sprintf("register %s, bare %v: %v", name, plain, err)
	case opRemove:
		if plain {
			err = p.srv.Nodes.Remove(name)
		} else {
			err = p.srv.RemoveNode(p.admin, name)
		}
		return fmt.Sprintf("remove %s, bare %v: %v", name, plain, err)
	case opDrain:
		return fmt.Sprintf("drain %s: %v", name, p.srv.DrainNode(p.admin, name))
	case opUndrain:
		return fmt.Sprintf("undrain %s: %v", name, p.srv.UndrainNode(p.admin, name))
	case opAdvance:
		d := time.Duration(int(arg)%64+1) * time.Second / 4
		p.clk.Advance(d)
		return "advance " + d.String()
	default:
		p.clk.Step()
		return "step"
	}
}

// check runs the five drift oracles and fails the run at the first
// difference.
func (p *scriptPlay) check(after string) {
	p.t.Helper()
	for _, drift := range []func() error{
		p.srv.CensusDrift, p.srv.QueueDrift, p.srv.LifecycleDrift, p.srv.DurableDrift, p.srv.PlacementDrift,
	} {
		if err := drift(); err != nil {
			p.t.Fatalf("after %s: %v", after, err)
		}
	}
}
