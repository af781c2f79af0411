package accessserver_test

import (
	"testing"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/schedsim"
)

// TestPlacementEvalsScaleWithBuilds gates the drain pass's cost as a
// count, so no machine can blur it: twice the builds may cost at most 2.2
// times the placements, on a healthy fleet (every verdict pinned) and on
// one that lost three nodes in ten (their classes re-placed against the
// fleet every pass). Re-placing the blocked prefix — a placement per visit
// — grows with the square.
func TestPlacementEvalsScaleWithBuilds(t *testing.T) {
	for _, killed := range []int{0, 3} {
		var evals [2]int64
		for i, builds := range []int{1000, 2000} {
			res, err := schedsim.Run(schedsim.FleetScript(builds, 10, killed, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range res.Builds {
				if b.State != "success" {
					t.Fatalf("%d nodes killed, %d builds: build %d ended %s (%s)", killed, builds, b.Index, b.State, b.Err)
				}
			}
			evals[i] = res.PlacementEvals
			t.Logf("%d nodes killed, %d builds: %d visits, %d placements computed", killed, builds, res.DrainVisits, res.PlacementEvals)
			if res.PlacementEvals < int64(builds) || res.PlacementEvals > res.DrainVisits {
				t.Errorf("%d placements computed over %d visits for %d builds: every build is placed at least once, no visit more than once",
					res.PlacementEvals, res.DrainVisits, builds)
			}
		}
		if float64(evals[1]) > 2.2*float64(evals[0]) {
			t.Errorf("%d nodes killed: 2000 builds cost %d placements, 1000 cost %d: more than 2.2 times", killed, evals[1], evals[0])
		}
	}
}

// TestPlacementEvalsBoundedPerEpoch holds the same two shapes to the bound
// the cache promises: a class is placed at most once per placement epoch —
// once per pass and once more per claim in it — so between any two events
// the placements computed are at most classes x epochs.
func TestPlacementEvalsBoundedPerEpoch(t *testing.T) {
	const nodes = 10 // and so classes: the script never has more
	for _, killed := range []int{0, 3} {
		script := schedsim.FleetScript(400, nodes, killed, nil)
		var lastEvals int64
		var lastEpoch uint64
		events := 0
		script.AfterEvent = func(srv *accessserver.Server) {
			events++
			evals, classes, epoch := srv.PlacementCost()
			if classes > nodes {
				t.Fatalf("event %d: %d placement classes for %d distinct constraints", events, classes, nodes)
			}
			if spent, allowed := evals-lastEvals, int64(nodes)*int64(epoch-lastEpoch); spent > allowed {
				t.Fatalf("%d nodes killed, event %d: %d placements computed in %d epochs of at most %d classes",
					killed, events, spent, epoch-lastEpoch, nodes)
			}
			lastEvals, lastEpoch = evals, epoch
		}
		if _, err := schedsim.Run(script); err != nil {
			t.Fatal(err)
		}
		if lastEvals == 0 {
			t.Fatal("no placement was ever computed")
		}
	}
}
