package accessserver

import (
	"fmt"
	"reflect"
	"sort"
)

// censusOracleLocked is the full census rebuild the server ran on every
// publish before publishes became incremental, kept as the test oracle:
// one scan of the whole queue for the per-node queued counts, the union
// of the registry and the lifecycle records for the names, every row
// rebuilt. It also returns the queued counts it derived. Callers hold
// s.mu.
func (s *Server) censusOracleLocked() ([]nodeCensusEntry, map[string]int) {
	queued := make(map[string]int)
	for _, b := range s.queue {
		queued[b.cons.Node]++
	}
	names := map[string]bool{}
	for _, n := range s.Nodes.List() {
		names[n] = true
	}
	for n := range s.nodeRecs {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	list := make([]nodeCensusEntry, 0, len(sorted))
	for _, n := range sorted {
		st, registered := s.nodeEntryLocked(n, queued[n])
		list = append(list, nodeCensusEntry{NodeStatus: st, registered: registered})
	}
	return list, queued
}

// CensusDrift compares what the server serves about its nodes with the
// oracle's full rebuild of the same instant and describes the first
// difference (nil when there is none). It checks the published census
// row for row — Health as the read routes derive it, since a published
// row's own Health field ages — the per-node queued counters, and
// NodeStatuses, which is served from the same counters.
func (s *Server) CensusDrift() error {
	statuses := s.NodeStatuses()
	s.mu.Lock()
	defer s.mu.Unlock()
	want, queued := s.censusOracleLocked()
	now := s.clock.Now()

	delete(queued, "") // a build with no preferred node counts nowhere
	if !reflect.DeepEqual(s.queuedOn, queued) {
		return fmt.Errorf("queued counters %v, a queue scan counts %v", s.queuedOn, queued)
	}
	got := s.reads.nodeList()
	if len(got) != len(want) {
		return fmt.Errorf("census serves %d rows, the oracle builds %d", len(got), len(want))
	}
	for i, w := range want {
		g := *got[i]
		if h := s.censusHealth(g, g.registered, now); h != w.Health {
			return fmt.Errorf("census row %q reads as %s, the oracle says %s", g.Name, h, w.Health)
		}
		g.Health = w.Health
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("census row %d is %+v, the oracle builds %+v", i, g, w)
		}
	}
	if len(statuses) != len(want) {
		return fmt.Errorf("NodeStatuses lists %d nodes, the oracle %d", len(statuses), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual(statuses[i], w.NodeStatus) {
			return fmt.Errorf("NodeStatuses[%d] is %+v, the oracle builds %+v", i, statuses[i], w.NodeStatus)
		}
	}
	return nil
}

// QueueDrift checks the bookkeeping the drain pass relies on instead of
// rewalking the queue: builds sit in s.queue in queueSeq order, every
// queued build's dispatch-side reason shadow equals the reason it
// reports and the reason the read plane serves, and behind the first
// build labelled execWait every build up to the labelled-through
// watermark carries that label too (labelSaturatedLocked skips that run
// unread).
func (s *Server) QueueDrift() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prev uint64
	inRun := false
	for i, b := range s.queue {
		if b.queueSeq <= prev {
			return fmt.Errorf("queue[%d] (build %d) has sequence %d after %d", i, b.ID, b.queueSeq, prev)
		}
		prev = b.queueSeq
		if got := b.PendingReason(); got != b.schedReason {
			return fmt.Errorf("build %d reports %q, the dispatch shadow holds %q", b.ID, got, b.schedReason)
		}
		if st, ok := s.reads.buildStatus(b.ID); !ok || st.PendingReason != b.schedReason {
			return fmt.Errorf("build %d is served as %q (published %v), the scheduler holds %q", b.ID, st.PendingReason, ok, b.schedReason)
		}
		if b.schedReason == execWait {
			inRun = true
		} else if inRun && b.queueSeq <= s.execLabelled {
			return fmt.Errorf("build %d (sequence %d, watermark %d) reads %q behind builds waiting for an executor",
				b.ID, b.queueSeq, s.execLabelled, b.schedReason)
		}
	}
	return nil
}
