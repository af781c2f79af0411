package sched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// check recounts the scheduler's state from entries — every entry the
// caller has made, queued, running or done — and describes the first
// place the incrementally kept state disagrees, nil when none does:
//
//   - the queue: in sequence order, each build once, every queued entry
//     among entries, and an entry counted in a class exactly when queued;
//   - the classes: one per distinct constraints in the queue, filed under
//     them, counting their queued builds, none empty;
//   - the lock table: exactly the keys running entries hold, built the
//     way a claim does, no two of them conflicting, each held by a build
//     that is not queued;
//   - the counts: running, per owner, per campaign, and per node the
//     builds running there (a local claim, whose lock is named after its
//     node) and queued preferring it;
//   - the labels: behind the first build labelled ExecWait, every build up
//     to the labelled-through watermark carries it too (labelSaturated
//     skips that run unread).
func (q *Sched) check(entries []*Entry) error {
	inQueue := map[*Entry]bool{}
	var prev uint64
	for i, e := range q.queue {
		if inQueue[e] || e.seq <= prev {
			return fmt.Errorf("queue[%d] (build %v) has sequence %d after %d, or is queued twice", i, e.job.Build, e.seq, prev)
		}
		inQueue[e], prev = true, e.seq
	}
	classQueued, campRunning := map[Constraints]int{}, map[*Campaign]int{}
	nodes, ownerRunning := map[string]NodeState{}, map[string]int{}
	locks := map[string]map[string]*Entry{}
	running, queued := 0, 0
	for _, e := range entries {
		if e.job.Camp != nil {
			campRunning[e.job.Camp] += 0 // a campaign running nothing is checked too
		}
		if inQueue[e] != (e.class != nil) {
			return fmt.Errorf("build %v: in the queue %v, counted in class %p", e.job.Build, inQueue[e], e.class)
		}
		if inQueue[e] {
			queued++
			if c := q.classes[e.job.Cons]; e.class != c {
				return fmt.Errorf("queued build %v (%+v) is counted in class %p, the table files %p", e.job.Build, e.job.Cons, e.class, c)
			}
			classQueued[e.job.Cons]++
			if n := e.job.Cons.Node; n != "" {
				ns := nodes[n]
				ns.Queued++
				nodes[n] = ns
			}
		}
		k := e.held
		if k == (Key{}) {
			if e.node != "" {
				return fmt.Errorf("build %v holds nothing and counts as running on node %q", e.job.Build, e.node)
			}
			continue
		}
		if inQueue[e] {
			return fmt.Errorf("queued build %v holds %q", e.job.Build, k)
		}
		running++
		ownerRunning[e.job.Owner]++
		if e.job.Camp != nil {
			campRunning[e.job.Camp]++
		}
		under := locks[k.Name]
		_, whole := under[""]
		_, same := under[k.Device]
		if whole || same || k.Device == "" && len(under) > 0 {
			return fmt.Errorf("build %v holds %q, which conflicts with what is held under %q: %v", e.job.Build, k, k.Name, under)
		}
		if under == nil {
			under = map[string]*Entry{}
			locks[k.Name] = under
		}
		under[k.Device] = e
		// A routed build's lock is named "peer!node" and counts on no node.
		if node := k.Name; !strings.Contains(node, "!") {
			ns := nodes[node]
			ns.Running++
			nodes[node] = ns
			if e.node != node {
				return fmt.Errorf("build %v holds %q and counts as running on node %q", e.job.Build, k, e.node)
			}
		} else if e.node != "" {
			return fmt.Errorf("routed build %v holds %q and counts as running on node %q", e.job.Build, k, e.node)
		}
	}
	if queued != len(q.queue) {
		return fmt.Errorf("the queue holds %d builds, %d of them known", len(q.queue), queued)
	}
	if len(q.classes) != len(classQueued) {
		return fmt.Errorf("%d placement classes for %d distinct constraints in the queue", len(q.classes), len(classQueued))
	}
	for cons, c := range q.classes {
		if c.cons != cons || c.queued != classQueued[cons] {
			return fmt.Errorf("class %+v (filed under %+v) counts %d queued builds, the queue holds %d", c.cons, cons, c.queued, classQueued[cons])
		}
	}
	if !reflect.DeepEqual(q.locks, locks) {
		return fmt.Errorf("lock table %v, running builds hold %v", q.locks, locks)
	}
	if q.running != running || !reflect.DeepEqual(q.ownerRunning, ownerRunning) {
		return fmt.Errorf("%d running, owners %v; the builds count %d and %v", q.running, q.ownerRunning, running, ownerRunning)
	}
	for camp, n := range campRunning {
		if camp.running != n {
			return fmt.Errorf("campaign %p counts %d running, its builds %d", camp, camp.running, n)
		}
	}
	for name, n := range q.nodes {
		if n.Queued != nodes[name].Queued || n.Running != nodes[name].Running {
			return fmt.Errorf("node %q counts %d queued and %d running, the builds %d and %d",
				name, n.Queued, n.Running, nodes[name].Queued, nodes[name].Running)
		}
		delete(nodes, name)
	}
	if len(nodes) > 0 {
		return fmt.Errorf("builds count on nodes the scheduler has no counts for: %v", nodes)
	}
	inRun := false
	for _, e := range q.queue {
		if e.reason == ExecWait {
			inRun = true
		} else if inRun && e.seq <= q.execLabelled {
			return fmt.Errorf("build %v (sequence %d, watermark %d) reads %q behind builds waiting for an executor",
				e.job.Build, e.seq, q.execLabelled, e.reason)
		}
	}
	return nil
}

// heldFleet places every build on its preferred node, pinned.
type heldFleet struct{}

func (heldFleet) Place(c Constraints, _ time.Time) (Placement, string) {
	return Placement{Node: c.Node, Device: c.Device, Pinned: true, Until: time.Unix(1<<40, 0)}, ""
}

func (heldFleet) CPUGate(string, time.Time) (Prio, string, bool) { return None, "", false }

// TestLockConflictIsOneLookup: with the lock table keyed by lock name,
// whether a key conflicts is decided by that name's entry and nothing
// else — no walk over what is held elsewhere, however much that is. One
// whole-node build and one device build hold their nodes while N device
// builds run on N other nodes: the table has one name per busy node,
// every conflict it knows comes out right, and comes out the same from a
// scheduler that holds only the two nodes' locks.
func TestLockConflictIsOneLookup(t *testing.T) {
	keys := []Key{{Name: "w"}, {Name: "w", Device: "dev1"}, {Name: "d"}, {Name: "d", Device: "dev1"},
		{Name: "d", Device: "dev2"}, {Name: "d", Device: "dev3"}, {Name: "free"}, {Name: "free", Device: "dev1"}}
	want := []bool{true, true, true, true, true, false, false, false}
	holds := []Constraints{{Node: "w"}, {Node: "d", Device: "dev1"}, {Node: "d", Device: "dev2"}}
	for _, others := range []int{1, 512} {
		cons := holds
		for i := range others {
			cons = append(cons, Constraints{Node: fmt.Sprintf("other%03d", i), Device: "dev1"})
		}
		for _, table := range [][]Constraints{cons, holds} {
			names := len(table) - 1 // d holds two devices under one name
			q := New(heldFleet{}, len(table), 0)
			var entries []*Entry
			for _, c := range table {
				e := NewEntry(Job{Cons: c, Build: len(entries)})
				entries = append(entries, &e)
				q.Push(&e)
			}
			if picks := len(q.Drain(time.Unix(0, 0)).Picks); picks != len(table) || len(q.locks) != names {
				t.Fatalf("%d builds claimed %d, the lock table has %d names; want all, one name per busy node (%d)", len(table), picks, len(q.locks), names)
			}
			if err := q.check(entries); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if got := q.Held(k); got != want[i] {
					t.Errorf("%d builds holding: %q held = %v, want %v", len(table), k, got, want[i])
				}
			}
		}
	}
}
