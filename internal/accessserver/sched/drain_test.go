package sched

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fakeNode is one vantage point of fakeFleet: up or down, online until
// its health decays, with devices and a CPU reading that is low, high or
// stale (a probe of it may be in flight).
type fakeNode struct {
	name    string
	up      bool
	until   time.Time
	devices []string
	cpu     int // 0 low, 1 high, 2 stale
	probing bool
}

// fakeFleet places builds the way the access server does, on three local
// nodes and one node a peer advertises, reading the scheduler it serves
// for running counts and locks. Whoever changes what a pinned placement
// reads (a node's up, until or devices) touches the node.
type fakeFleet struct {
	q     *Sched
	nodes []*fakeNode
}

func newFakeFleet(now time.Time) *fakeFleet {
	f := &fakeFleet{}
	for i := range 3 {
		f.nodes = append(f.nodes, &fakeNode{name: fmt.Sprintf("n%d", i), up: true,
			until: now.Add(5 * time.Second), devices: []string{"d0", "d1"}[:1+i%2]})
	}
	return f
}

func (f *fakeFleet) node(name string) *fakeNode {
	for _, n := range f.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

func (n *fakeNode) online(now time.Time) bool { return n.up && now.Before(n.until) }

func (f *fakeFleet) Place(c Constraints, now time.Time) (Placement, string) {
	if n := f.node(c.Node); n != nil && n.online(now) {
		return Placement{Node: c.Node, Device: c.Device, Pinned: true, Until: n.until}, ""
	}
	if c.Node == "r0" {
		return Placement{Node: "r0", Device: c.Device, Score: -15, Peer: "p", PeerURL: "http://p"}, ""
	}
	reason := "node " + c.Node + " is not online"
	if !c.Fallback {
		return Placement{}, reason
	}
	var best Placement
	found := false
	consider := func(pl Placement, score float64) {
		if f.q.Held(c.Key(pl)) {
			return
		}
		if !found || score > best.Score {
			pl.Score, best, found = score, pl, true
		}
	}
	for _, n := range f.nodes {
		if n.name == c.Node || !n.online(now) {
			continue
		}
		devices := n.devices
		if c.Device == "" {
			devices = []string{""}
		}
		for _, d := range devices {
			score := -10 * float64(f.q.Node(n.name).Running)
			if d == c.Device {
				score += 5
			}
			consider(Placement{Node: n.name, Device: d}, score)
		}
	}
	consider(Placement{Node: "r0", Device: c.Device, Peer: "p", PeerURL: "http://p"}, -15)
	if found {
		return best, ""
	}
	return Placement{}, reason + "; no fallback node available"
}

func (f *fakeFleet) CPUGate(node string, now time.Time) (Prio, string, bool) {
	n := f.node(node)
	switch n.cpu {
	case 1:
		return CPUGate, "controller CPU above the gate", false
	case 2:
		probe := !n.probing
		n.probing = true
		return CPUProbe, "probing controller CPU", probe
	}
	return None, "", false
}

// drainReference is the pass with no cache: it judges every build it
// visits by placing it, and labels every build it skips, the saturated
// tail included, walking all of it.
func (q *Sched) drainReference(now time.Time) *Pass {
	p := &q.pass
	p.Picks, p.Probes, p.Relabels = nil, nil, nil
	for _, e := range q.queue {
		if q.running >= q.executors {
			q.skip(e, Executor, ExecWait)
			continue
		}
		j := e.job
		prio, reason := None, ""
		var pl Placement
		var key Key
		switch {
		case j.Camp != nil && j.Camp.Max > 0 && j.Camp.running >= j.Camp.Max:
			prio, reason = CampaignCap, "campaign concurrency cap reached"
		case q.ownerCap > 0 && q.ownerRunning[j.Owner] >= q.ownerCap:
			prio, reason = OwnerCap, fmt.Sprintf("owner %s at the fair-share cap (%d running)", j.Owner, q.ownerCap)
		default:
			pl, reason = q.fleet.Place(j.Cons, now)
			key = j.Cons.Key(pl)
			switch {
			case pl.Node == "":
				prio = NodeUnavailable
			case q.Held(key):
				prio, reason = LockWait, "waiting for "+key.String()
			}
		}
		if prio == None && j.Cons.RequireLowCPU && pl.Peer == "" {
			var probe bool
			if prio, reason, probe = q.fleet.CPUGate(pl.Node, now); probe {
				p.Probes = append(p.Probes, pl.Node)
			}
		}
		if prio != None {
			q.skip(e, prio, reason)
			continue
		}
		q.claim(e, pl, key)
	}
	q.compact(0, len(q.queue))
	return p
}

// side is one scheduler under test and the fleet it reads.
type side struct {
	q     *Sched
	f     *fakeFleet
	camp  *Campaign
	drain func(time.Time) *Pass
}

func newSide(now time.Time, reference bool) *side {
	s := &side{f: newFakeFleet(now), camp: &Campaign{Max: 1}}
	s.q = New(s.f, 3, 2)
	s.f.q = s.q
	s.drain = s.q.Drain
	if reference {
		s.drain = s.q.drainReference
	}
	return s
}

// FuzzDrainMatchesReference drives the drain pass and drainReference
// through the same random steps — builds pushed with constraints from a
// small set, claimed and released, removed one at a time or by owner or
// preferred node, failed over with a retry label and requeued, nodes
// turned on and off and their versions moved, the clock moved past the
// verdicts' horizons, CPU readings changed — and after every step
// requires of each scheduler that its state recounts from the entries
// (check), and of the pass the same picks in order with the same
// placements and scores, the same probes, the same relabelled builds, the
// same label on every queued build, and the same lock table and counts.
func FuzzDrainMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0, 0, 6, 0, 7})
	f.Add([]byte{0, 8, 0, 8, 0, 8, 0, 8, 0, 9, 2, 0, 0, 8, 5, 3, 1, 1, 3, 0, 0, 10})
	f.Add([]byte{0, 0x41, 0, 0x42, 0, 0x43, 0, 0x44, 6, 0x12, 0, 0x51, 5, 7, 4, 1, 1, 2, 7, 0})
	f.Add([]byte{0, 0x81, 0, 0x81, 0, 0x82, 0, 0x90, 0, 0xa1, 2, 1, 5, 2, 3, 1, 1, 0, 1, 0, 0, 0x13})
	// Removed by preferred node (as RemoveNode does), then by owner (as
	// DeleteJob does), running builds left alone.
	f.Add([]byte{0, 0, 0, 5, 0, 0x80, 0, 0x85, 0, 1, 0, 0x81, 0, 0x10, 8, 0, 0, 0x82, 8, 3, 0, 2, 8, 0x10})
	// Running builds fail over with a retry label and rejoin the queue
	// behind builds waiting for an executor.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 5, 0, 6, 0, 7, 0, 0x0a, 9, 0, 9, 1, 0, 0x0b, 9, 2, 1, 3, 9, 4})
	f.Fuzz(func(t *testing.T, steps []byte) {
		now := time.Unix(1000, 0)
		core, ref := newSide(now, false), newSide(now, true)
		sides := []*side{core, ref}
		type build struct{ e [2]*Entry }
		var builds []*build
		checked := func(step int, when string) {
			for k, s := range sides {
				entries := make([]*Entry, len(builds))
				for x, b := range builds {
					entries[x] = b.e[k]
				}
				if err := s.q.check(entries); err != nil {
					t.Fatalf("step %d, %s the pass: %v", step, when, err)
				}
			}
		}
		for i := 0; i+1 < len(steps) && len(builds) < 64; i += 2 {
			op, arg := steps[i]%10, int(steps[i+1])
			for k, s := range sides {
				n := s.f.nodes[arg%3]
				switch op {
				case 0: // submit
					cons := Constraints{Node: []string{"n0", "n1", "n2", "ghost", "r0"}[arg%5],
						Device: []string{"", "d0", "d1"}[arg/5%3], Fallback: arg&0x10 != 0,
						WholeNode: arg&0x20 != 0, RequireLowCPU: arg&0x40 != 0}
					if k == 0 {
						builds = append(builds, &build{})
					}
					b := builds[len(builds)-1]
					j := Job{Owner: []string{"a", "b"}[arg>>7], Cons: cons, Build: len(builds)}
					if arg%7 == 0 {
						j.Camp = s.camp
					}
					e := NewEntry(j)
					b.e[k] = &e
					s.q.Push(b.e[k])
				case 1: // a running build finishes
					if len(builds) > 0 {
						s.q.Release(builds[arg%len(builds)].e[k])
					}
				case 2: // a node goes down or comes back
					n.up = !n.up
					s.q.Touch(n.name)
				case 3: // a node beats: online for five more seconds
					n.until = now.Add(5 * time.Second)
					s.q.Touch(n.name)
				case 4: // something a pinned verdict reads changed
					n.devices = []string{"d1", "d0"}[:1+arg/3%2]
					s.q.Touch(n.name)
				case 5: // the clock moves, past some horizons
					if k == len(sides)-1 {
						now = now.Add(time.Duration(1+arg%4) * time.Second)
					}
				case 6: // a probe answers
					n.cpu, n.probing = arg/3%3, false
				case 7: // a queued build is aborted
					if len(builds) > 0 {
						s.q.Remove(builds[arg%len(builds)].e[k])
					}
				case 8: // a node is removed or a job deleted: its queued builds go
					node, owner := []string{"n0", "n1", "n2", "ghost", "r0"}[arg%5], []string{"a", "b"}[arg/5%2]
					s.q.RemoveFunc(func(j Job) bool {
						if arg&0x10 != 0 {
							return j.Owner == owner
						}
						return j.Cons.Node == node && !j.Cons.Fallback
					})
				case 9: // a running build's node is lost: it fails over and rejoins the queue
					if len(builds) > 0 {
						if e := builds[arg%len(builds)].e[k]; s.q.Release(e) {
							s.q.SetLabel(e, Retry, "node lost; retry 1/3")
							s.q.Push(e)
						}
					}
				}
			}
			checked(i/2, "before")
			var passes [2]Pass
			for k, s := range sides {
				passes[k] = *s.drain(now)
			}
			if !reflect.DeepEqual(passes[0].Picks, passes[1].Picks) && (len(passes[0].Picks) > 0 || len(passes[1].Picks) > 0) {
				t.Fatalf("step %d: the pass picks %+v, the reference %+v", i/2, passes[0].Picks, passes[1].Picks)
			}
			if fmt.Sprint(passes[0].Probes) != fmt.Sprint(passes[1].Probes) || fmt.Sprint(passes[0].Relabels) != fmt.Sprint(passes[1].Relabels) {
				t.Fatalf("step %d: the pass probes %v and relabels %v, the reference %v and %v",
					i/2, passes[0].Probes, passes[0].Relabels, passes[1].Probes, passes[1].Relabels)
			}
			if len(core.q.queue) != len(ref.q.queue) {
				t.Fatalf("step %d: %d builds queued, the reference %d", i/2, len(core.q.queue), len(ref.q.queue))
			}
			for x, e := range core.q.queue {
				r := ref.q.queue[x]
				if e.job.Build != r.job.Build || e.prio != r.prio || e.reason != r.reason {
					t.Fatalf("step %d: queue[%d] is build %v waiting %d %q, the reference's build %v %d %q",
						i/2, x, e.job.Build, e.prio, e.reason, r.job.Build, r.prio, r.reason)
				}
			}
			if fmt.Sprint(holders(core.q)) != fmt.Sprint(holders(ref.q)) || core.q.running != ref.q.running ||
				!reflect.DeepEqual(core.q.ownerRunning, ref.q.ownerRunning) || !reflect.DeepEqual(core.q.nodes, ref.q.nodes) {
				t.Fatalf("step %d: locks %v, %d running, owners %v; the reference %v, %d, %v",
					i/2, holders(core.q), core.q.running, core.q.ownerRunning, holders(ref.q), ref.q.running, ref.q.ownerRunning)
			}
			checked(i/2, "after")
		}
	})
}

// holders is the lock table with each holder named by its build.
func holders(q *Sched) map[string]map[string]any {
	out := map[string]map[string]any{}
	for name, under := range q.locks {
		out[name] = map[string]any{}
		for device, e := range under {
			out[name][device] = e.job.Build
		}
	}
	return out
}
