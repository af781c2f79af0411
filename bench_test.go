package batterylab

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§4). Each benchmark runs the corresponding
// experiment at paper scale on the virtual clock and reports the
// headline quantities as custom metrics, so `go test -bench=.` prints
// the reproduction alongside wall-clock cost. cmd/blab-bench renders the
// same results as full text tables.
//
//	BenchmarkFig2Accuracy      — Fig. 2: current CDFs, 4 wiring/mirroring scenarios
//	BenchmarkFig3BrowserEnergy — Fig. 3: per-browser discharge, mirroring off/on
//	BenchmarkFig4DeviceCPU     — Fig. 4: device CPU CDFs (Brave vs Chrome)
//	BenchmarkFig5ControllerCPU — Fig. 5: controller CPU CDFs
//	BenchmarkTable2VPN         — Table 2: speedtest through 5 VPN exits
//	BenchmarkFig6VPNEnergy     — Fig. 6: energy per VPN location
//	BenchmarkSysPerf           — §4.2 system performance numbers
//	BenchmarkAblation*         — design-choice ablations

import (
	"testing"
	"time"

	"batterylab/internal/experiments"
)

// paperOpts is the full-scale configuration (5 repetitions, 10 pages,
// 5-minute video). The monitor rate is 250 Hz for multi-run sweeps to
// bound memory; Fig. 2 uses the full 5 kHz hardware rate.
func paperOpts() experiments.Options {
	return experiments.Options{
		Seed:          2019,
		Repetitions:   5,
		Pages:         10,
		Scrolls:       8,
		SampleRate:    250,
		VideoDuration: 5 * time.Minute,
	}
}

func BenchmarkFig2Accuracy(b *testing.B) {
	opts := paperOpts()
	opts.SampleRate = 5000 // the Monsoon's full rate, as in the paper
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2Accuracy(opts)
		if err != nil {
			b.Fatal(err)
		}
		gap, err := experiments.SummarizeFig2(rows)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gap.MedianNoMirror, "median-mA")
		b.ReportMetric(gap.MirrorLiftMA, "mirror-lift-mA")
		b.ReportMetric(gap.DirectRelayKS, "direct-relay-KS")
	}
}

func BenchmarkFig3BrowserEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3BrowserEnergy(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := experiments.SummarizeFig3(rows)
		for _, r := range rows {
			switch r.Browser {
			case "Brave":
				b.ReportMetric(r.MirrorOff.Mean, "brave-mAh")
			case "Firefox":
				b.ReportMetric(r.MirrorOff.Mean, "firefox-mAh")
			}
		}
		b.ReportMetric(f.ExtraSpreadMAH, "mirror-extra-spread-mAh")
	}
}

func BenchmarkFig4DeviceCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4DeviceCPU(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Mirroring {
				switch r.Browser {
				case "Brave":
					b.ReportMetric(r.CDF.Median(), "brave-cpu-p50")
				case "Chrome":
					b.ReportMetric(r.CDF.Median(), "chrome-cpu-p50")
				}
			}
		}
	}
}

func BenchmarkFig5ControllerCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5ControllerCPU(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mirroring {
				b.ReportMetric(r.CDF.Median(), "mirror-cpu-p50")
				b.ReportMetric(100*(1-r.CDF.At(95)), "mirror-cpu-pct-over95")
			} else {
				b.ReportMetric(r.CDF.Median(), "plain-cpu-p50")
			}
		}
	}
}

func BenchmarkTable2VPN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Rows(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].DownMbps, "slowest-down-Mbps")
		b.ReportMetric(rows[len(rows)-1].DownMbps, "fastest-down-Mbps")
	}
}

func BenchmarkFig6VPNEnergy(b *testing.B) {
	opts := paperOpts()
	// The paper bounds this experiment's duration by testing only Brave
	// and Chrome; repetitions stay at 5.
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6VPNEnergy(opts)
		if err != nil {
			b.Fatal(err)
		}
		f := experiments.SummarizeFig6(rows)
		b.ReportMetric(f.ChromeJapanDipPct, "chrome-japan-dip-pct")
		b.ReportMetric(f.MaxBraveSpreadSigma, "brave-max-spread-sigma")
	}
}

func BenchmarkSysPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.SysPerf(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.CtlCPUExtraAvg, "ctl-cpu-extra")
		b.ReportMetric(rep.UploadMB, "upload-MB")
		b.ReportMetric(rep.LatencyMean, "latency-s")
	}
}

func BenchmarkAblationRelayOverhead(b *testing.B) {
	opts := paperOpts()
	opts.VideoDuration = time.Minute
	opts.SampleRate = 1000
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationRelayOverhead(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.DeltaPct, "relay-delta-pct")
		b.ReportMetric(rep.KSDistance, "KS")
	}
}

func BenchmarkAblationBitrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBitrate(paperOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].UploadMB, "upload-at-1Mbps-MB")
	}
}

func BenchmarkAblationSampleRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSampleRate(paperOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ErrorPct, "err-at-50Hz-pct")
	}
}

func BenchmarkAblationAutomation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAutomation(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Channel == "adb-usb" {
				b.ReportMetric(r.DistortionPct, "usb-distortion-pct")
			}
		}
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationScheduler(paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MakespanS, "per-device-makespan-s")
		b.ReportMetric(rows[1].MakespanS, "whole-node-makespan-s")
	}
}
