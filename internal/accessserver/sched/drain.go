package sched

import (
	"sort"
	"strconv"
	"time"
)

// Class is the placement verdict every queued build with the same
// constraints shares. Between two claims of one drain pass nothing a
// verdict reads can change, and between two passes almost nothing does,
// so the pass computes a class's verdict once (judge) and every other
// queued build of the class reuses it for a pointer compare. It is a
// cache and nothing else: a verdict is reused only while everything it
// read is known unchanged, so the pass picks, scores and labels exactly
// what placing every build would.
//
// There are two kinds of verdict and one validity check, a stamp held
// against where it came from:
//
//   - Pinned: the preferred node is registered and online, Fleet.Place's
//     first case. It read that node's record and the locks under its name,
//     nothing else, so it holds across passes while the node's version is
//     the stamp and now is before the placement's Until — health decays
//     with time, and no event fires when it does. The rule its writers
//     keep: whoever changes what the pinned path reads moves the node's
//     version (Touch; a claim or release on the node does it itself).
//   - Anything else — the node unknown, suspect, offline, draining or
//     removed; remote pinned; fallback — read the fleet, the lock table,
//     running counts and peer censuses as of now. It holds while the
//     placement epoch is the stamp: inside the pass that computed it,
//     until that pass's next claim.
//
// A class exists while builds of it are queued (Push), so the table is
// never larger than the queue.
type Class struct {
	cons   Constraints
	queued int // builds of the class in the queue
	v      Verdict
	// node is the node a pinned verdict hangs on, nil for any other.
	node  *NodeState
	stamp uint64
}

// Verdict is where a build of a class may run (nowhere when the
// placement's Node is empty, for Reason), the lock it would take there,
// whether that conflicts with a held one, and the pending reason of a
// build it keeps waiting.
type Verdict struct {
	Placement
	Reason string
	Key    Key
	Held   bool
	Wait   string
}

// Cons is the constraints the class's builds share.
func (c *Class) Cons() Constraints { return c.cons }

// Verdict is the class's last verdict, standing or not.
func (c *Class) Verdict() Verdict { return c.v }

// Standing reports whether c holds a pinned verdict that still stands at
// now: one the next pass would reuse without placing the class.
func (q *Sched) Standing(c *Class, now time.Time) bool {
	return c.node != nil && q.valid(c, now)
}

// valid reports whether c's verdict still stands at now.
func (q *Sched) valid(c *Class, now time.Time) bool {
	if c.node != nil {
		return c.stamp == c.node.Version && now.Before(c.v.Until)
	}
	return c.stamp == q.epoch
}

// judge computes c's verdict: the placement, the lock it needs, whether
// that is free.
func (q *Sched) judge(c *Class, now time.Time) {
	q.evals++
	c.v.Placement, c.v.Reason = q.fleet.Place(c.cons, now)
	c.node, c.stamp = nil, q.epoch
	if c.v.Node == "" {
		return
	}
	// A class asks for the same lock nearly every time: keep its spelling.
	if k := c.cons.Key(c.v.Placement); k != c.v.Key {
		c.v.Key, c.v.Wait = k, "waiting for "+k.String()
	}
	c.v.Held = q.Held(c.v.Key)
	if c.v.Pinned {
		c.node = q.node(c.cons.Node)
		c.stamp = c.node.Version
	}
}

// Pick is one build a pass claimed, with its placement. Running is the
// placed local node's running count before this claim moved it, which
// the score of a pinned placement reads.
type Pick struct {
	Job
	Placement
	Running int
}

// Pass is what one drain pass decided: the builds it claimed, in order;
// the local nodes whose CPU to probe; the queued builds (Job.Build) whose
// pending reason it changed (Entry.Label). It is valid until the next
// pass.
type Pass struct {
	Picks    []Pick
	Probes   []string
	Relabels []any
}

// ExecWait is the pending reason of every build behind the point where a
// drain pass ran out of executors.
const ExecWait = "waiting for a free executor"

// Drain is the single placement pass: it scans the queue once, claiming
// every build that can start now (locks and counters are taken
// immediately, so later candidates in the same pass see the updated
// state) and recording a stable pending reason for every build it skips.
// It also collects CPU probes to launch: a CPU gate never blocks the pass
// on a node — a stale reading latches one probe and skips the candidate.
//
// The pass places classes, not builds: a candidate reads where it may run
// and whether its lock is free off its class's verdict, which is computed
// (judge) only when the class has none that is still valid — see Class
// for when that is. Everything specific to the build stays per build: the
// campaign and owner caps before the verdict, the CPU gate — which latches
// probes — after it.
//
// An owner-cap label names only the owner and the cap, both fixed for the
// entry, so a build the cap still holds keeps its text: it is formatted
// when the build first meets the cap, and no label is parsed.
//
// A pass that claims nothing — every pass after saturation — leaves the
// queue untouched, and one that relabels nothing allocates nothing.
func (q *Sched) Drain(now time.Time) *Pass {
	p := &q.pass
	clear(p.Picks) // pin no build past the pass that picked or relabelled it
	clear(p.Relabels)
	p.Picks, p.Probes, p.Relabels = p.Picks[:0], p.Probes[:0], p.Relabels[:0]
	q.epoch++         // a verdict that is not pinned dies with the pass that computed it
	first, i := -1, 0 // the queue is compacted from the first claim to where the scan stops
	for ; i < len(q.queue); i++ {
		e := q.queue[i]
		if q.running >= q.executors {
			// Saturated: nothing below can dispatch, and saturation is the
			// one condition that applies to every remaining build
			// identically — label the tail without evaluating (expensive)
			// placement and stop scanning.
			q.labelSaturated(q.queue[i:])
			break
		}
		q.visits++
		c := e.class

		// Evaluate the skip conditions in priority order; the first failing
		// check is by construction the highest-priority reason, so the
		// recorded pending reason cannot churn between checks evaluated
		// later in the same pass.
		prio, reason := None, ""
		if camp := e.job.Camp; camp != nil && camp.Max > 0 && camp.running >= camp.Max {
			prio, reason = CampaignCap, "campaign concurrency cap reached"
		}
		if limit := q.ownerCap; prio == None && limit > 0 && q.ownerRunning[e.job.Owner] >= limit {
			prio, reason = OwnerCap, e.reason
			if e.prio != OwnerCap {
				reason = "owner " + e.job.Owner + " at the fair-share cap (" + strconv.Itoa(limit) + " running)"
			}
		}
		if prio == None {
			if !q.valid(c, now) {
				q.judge(c, now)
			}
			switch {
			case c.v.Node == "":
				prio, reason = NodeUnavailable, c.v.Reason
			case c.v.Held:
				prio, reason = LockWait, c.v.Wait
			}
		}
		// The CPU gate only applies to local placements: a routed build's
		// home peer enforces its own gate when it dispatches the relayed
		// spec.
		if prio == None && e.job.Cons.RequireLowCPU && c.v.Peer == "" {
			var probe bool
			if prio, reason, probe = q.fleet.CPUGate(c.v.Node, now); probe {
				p.Probes = append(p.Probes, c.v.Node)
			}
		}
		if prio != None {
			q.skip(e, prio, reason)
			continue
		}
		if first < 0 {
			first = i
		}
		q.claim(e, c.v.Placement, c.v.Key)
	}
	if first >= 0 {
		q.compact(first, i)
	}
	return p
}

// skip records a skipped build's pending reason and its category, and
// reports the build as relabelled only when the reason actually changed —
// the drain labels every skipped build every pass, and on a deep queue
// almost all of those labels are repeats.
func (q *Sched) skip(e *Entry, prio Prio, reason string) {
	e.prio = prio
	if e.reason != reason {
		e.reason = reason
		q.pass.Relabels = append(q.pass.Relabels, e.job.Build)
	}
}

// labelSaturated labels tail — the queue from the point where the pass
// ran out of executors — with ExecWait, category Executor, without
// walking the part that already carries it. Labels in the queue always
// read, in order: builds some pass evaluated (any other category),
// builds a saturated pass labelled Executor, builds that joined since.
// Only a pass's evaluated prefix is ever relabelled with another
// category, so the middle run is contiguous: the walk labels from the
// front until it meets it, then resumes behind execLabelled, the queue
// sequence number that run is known to reach.
func (q *Sched) labelSaturated(tail []*Entry) {
	i := 0
	for i < len(tail) && tail[i].prio != Executor {
		q.skip(tail[i], Executor, ExecWait)
		i++
	}
	// The queue is ordered by seq: everything from i up to the watermark
	// is labelled already.
	i += sort.Search(len(tail)-i, func(n int) bool { return tail[i+n].seq > q.execLabelled })
	for _, e := range tail[i:] {
		q.skip(e, Executor, ExecWait)
	}
	q.execLabelled = tail[len(tail)-1].seq
}
