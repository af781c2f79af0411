package experiments

import (
	"testing"
	"time"
)

// TestFiguresPinned pins the figures that run the browser workload, at
// the Test*Shapes scale (testOpts), bit for bit: both runs' energies of
// every Fig. 3 and Fig. 6 bar (two repetitions, so a bar's Min and Max
// are its runs), the CPU CDF quantiles TestFig4Shapes and
// TestFig5Shapes read, and the §4.2 system-performance figures derived
// from the CPU traces and the run summary. The values were recorded
// from the figures before they moved from a direct local run onto the
// platform's access server; a change that moves a run in simulated
// time, or loses a bit of a CPU trace on the way through a build's
// artifacts, moves them.
func TestFiguresPinned(t *testing.T) {
	type pair struct{ lo, hi float64 }
	opts := testOpts()

	t.Run("Fig3", func(t *testing.T) {
		want := []struct {
			browser string
			off, on pair
		}{
			{"Brave", pair{2.950584166666667, 2.9511044444444434}, pair{3.3950630555555534, 3.431942777777783}},
			{"Chrome", pair{3.8555906944444187, 3.8707974999999943}, pair{4.337860138888883, 4.383498611111116}},
			{"Edge", pair{4.052142083333335, 4.061347638888889}, pair{4.559712500000004, 4.598035555555557}},
			{"Firefox", pair{4.374192361111109, 4.386235555555551}, pair{4.825327777777773, 4.889465972222213}},
		}
		rows, err := Fig3BrowserEnergy(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			off := pair{r.MirrorOff.Min, r.MirrorOff.Max}
			on := pair{r.MirrorOn.Min, r.MirrorOn.Max}
			if r.Browser != w.browser || off != w.off || on != w.on {
				t.Errorf("row %d: %s off %v on %v; want %s off %v on %v",
					i, r.Browser, off, on, w.browser, w.off, w.on)
			}
		}
	})

	t.Run("Fig4", func(t *testing.T) {
		want := []struct {
			browser   string
			mirroring bool
			median    float64
		}{
			{"Brave", false, 10.929959505091947},
			{"Brave", true, 13.003414455966137},
			{"Chrome", false, 22.820046520991944},
			{"Chrome", true, 24.839782827684623},
		}
		rows, err := Fig4DeviceCPU(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			if r.Browser != w.browser || r.Mirroring != w.mirroring || r.CDF.Median() != w.median {
				t.Errorf("row %d: %s mirroring=%v median %v; want %s mirroring=%v median %v",
					i, r.Browser, r.Mirroring, r.CDF.Median(), w.browser, w.mirroring, w.median)
			}
		}
	})

	t.Run("Fig5", func(t *testing.T) {
		// Median, 10th and 90th percentile, and the CDF at 95 %.
		want := []struct {
			mirroring          bool
			med, p10, p90, a95 float64
		}{
			{false, 24.854050598165337, 23.625663719789728, 26.214351411302722, 1},
			{true, 77.20516201595996, 70.02951302886044, 94.59584473554551, 0.9148936170212766},
		}
		rows, err := Fig5ControllerCPU(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			med, p10, p90, a95 := r.CDF.Median(), r.CDF.Quantile(0.1), r.CDF.Quantile(0.9), r.CDF.At(95)
			if r.Mirroring != w.mirroring || med != w.med || p10 != w.p10 || p90 != w.p90 || a95 != w.a95 {
				t.Errorf("row %d: mirroring=%v %v %v %v %v; want mirroring=%v %v %v %v %v",
					i, r.Mirroring, med, p10, p90, a95, w.mirroring, w.med, w.p10, w.p90, w.a95)
			}
		}
	})

	t.Run("Fig6", func(t *testing.T) {
		want := []struct {
			location, browser string
			energy            pair
		}{
			{"Johannesburg", "Brave", pair{3.570352499999998, 3.5740652777777813}},
			{"Johannesburg", "Chrome", pair{4.6223577777777765, 4.627126527777764}},
			{"Hong Kong", "Brave", pair{3.4668144444444464, 3.5398909722222167}},
			{"Hong Kong", "Chrome", pair{4.609012361111117, 4.621449583333331}},
			{"Bunkyo", "Brave", pair{3.3841226388888948, 3.400650833333338}},
			{"Bunkyo", "Chrome", pair{4.341275694444449, 4.343258333333337}},
			{"Sao Paulo", "Brave", pair{3.3611748611111207, 3.3812301388888866}},
			{"Sao Paulo", "Chrome", pair{4.400644722222225, 4.437239999999998}},
			{"Santa Clara", "Brave", pair{3.3311418055555446, 3.339896111111114}},
			{"Santa Clara", "Chrome", pair{4.330902083333343, 4.3620616666666745}},
		}
		rows, err := Fig6VPNEnergy(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			got := pair{r.Energy.Min, r.Energy.Max}
			if r.Location != w.location || r.Browser != w.browser || got != w.energy {
				t.Errorf("row %d: %s %s %v; want %s %s %v",
					i, r.Location, r.Browser, got, w.location, w.browser, w.energy)
			}
		}
	})

	t.Run("SysPerf", func(t *testing.T) {
		rep, err := SysPerf(opts)
		if err != nil {
			t.Fatal(err)
		}
		const (
			ctlExtra = 55.797058149329985
			uploadMB = 2.3805
			duration = 47500 * time.Millisecond
		)
		if rep.CtlCPUExtraAvg != ctlExtra || rep.UploadMB != uploadMB || rep.TestDuration != duration {
			t.Errorf("ctl CPU extra %v, upload %v MB, duration %v; want %v, %v MB, %v",
				rep.CtlCPUExtraAvg, rep.UploadMB, rep.TestDuration, ctlExtra, uploadMB, duration)
		}
	})
}
