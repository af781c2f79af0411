package experiments

import (
	"testing"
	"time"
)

// TestCampaignSweepPinned pins the sweep blab-bench -campaign prints, at
// the paper's scale (default Options: 10 pages, 8 scrolls, 250 Hz) and
// three browser runs per node, bit for bit: per-run energies, makespan
// and the sequential sum. The values were recorded from the sweep before
// campaigns moved onto the access server's scheduler; any change to how
// a campaign is scheduled that moves a run in simulated time moves them.
func TestCampaignSweepPinned(t *testing.T) {
	type row struct {
		node, browser string
		mAh           float64
	}
	cases := []struct {
		nodes            int
		makespan, seqSum time.Duration
		rows             []row
	}{
		{2, 676530 * time.Millisecond, 1353000 * time.Millisecond, []row{
			{"node1", "Brave", 14.289729166666671},
			{"node2", "Brave", 14.273563222222174},
			{"node1", "Chrome", 18.555278999999825},
			{"node2", "Chrome", 18.544214833333264},
			{"node1", "Edge", 19.47040155555557},
			{"node2", "Edge", 19.432402500000112},
		}},
		{3, 676530 * time.Millisecond, 2029500 * time.Millisecond, []row{
			{"node1", "Brave", 14.289729166666671},
			{"node2", "Brave", 14.273563222222174},
			{"node3", "Brave", 14.215854333333569},
			{"node1", "Chrome", 18.555278999999825},
			{"node2", "Chrome", 18.544214833333264},
			{"node3", "Chrome", 18.572908722222152},
			{"node1", "Edge", 19.47040155555557},
			{"node2", "Edge", 19.432402500000112},
			{"node3", "Edge", 19.486581277777585},
		}},
	}
	for _, c := range cases {
		rep, err := CampaignSweep(Options{}, c.nodes, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Makespan != c.makespan || rep.SequentialSum != c.seqSum {
			t.Errorf("%d nodes: makespan %v, sequential %v; want %v, %v",
				c.nodes, rep.Makespan, rep.SequentialSum, c.makespan, c.seqSum)
		}
		if len(rep.Rows) != len(c.rows) {
			t.Fatalf("%d nodes: %d rows, want %d", c.nodes, len(rep.Rows), len(c.rows))
		}
		for i, want := range c.rows {
			got := rep.Rows[i]
			if got.Err != "" || got.Node != want.node || got.Browser != want.browser || got.EnergyMAH != want.mAh {
				t.Errorf("%d nodes, run %d: %s %s %v mAh (err %q); want %s %s %v mAh",
					c.nodes, i, got.Node, got.Browser, got.EnergyMAH, got.Err, want.node, want.browser, want.mAh)
			}
		}
	}
}
