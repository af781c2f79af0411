package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"batterylab/internal/vpn"
)

// The Format helpers render experiment results as the text tables
// cmd/blab-bench prints.

func table(f func(w *tabwriter.Writer)) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	f(w)
	w.Flush()
	return b.String()
}

// FormatFig2 renders the accuracy CDFs as quantile rows.
func FormatFig2(rows []Fig2Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 2: CDF of current drawn during 5-min video (mA)")
		fmt.Fprintln(w, "scenario\tp10\tp25\tp50\tp75\tp90")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.Scenario,
				r.CDF.Quantile(0.10), r.CDF.Quantile(0.25), r.CDF.Quantile(0.50),
				r.CDF.Quantile(0.75), r.CDF.Quantile(0.90))
		}
	})
}

// FormatFig3 renders the browser energy bars.
func FormatFig3(rows []Fig3Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 3: per-browser battery discharge (mAh, mean±std)")
		fmt.Fprintln(w, "browser\tmirror off\tmirror on\textra")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.2f±%.2f\t%.2f±%.2f\t%+.2f\n",
				r.Browser,
				r.MirrorOff.Mean, r.MirrorOff.Std,
				r.MirrorOn.Mean, r.MirrorOn.Std,
				r.MirrorOn.Mean-r.MirrorOff.Mean)
		}
	})
}

// FormatFig4 renders the device-CPU CDFs.
func FormatFig4(rows []Fig4Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 4: CDF of device CPU utilization (%)")
		fmt.Fprintln(w, "browser\tmirroring\tp25\tp50\tp75\tp90")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.Browser, r.Mirroring,
				r.CDF.Quantile(0.25), r.CDF.Quantile(0.50),
				r.CDF.Quantile(0.75), r.CDF.Quantile(0.90))
		}
	})
}

// FormatFig5 renders the controller-CPU CDFs.
func FormatFig5(rows []Fig5Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 5: CDF of controller (Pi 3B+) CPU utilization (%)")
		fmt.Fprintln(w, "mirroring\tp10\tp50\tp90\tfrac>95%")
		for _, r := range rows {
			fracOver := 1 - r.CDF.At(95)
			fmt.Fprintf(w, "%v\t%.1f\t%.1f\t%.1f\t%.2f\n",
				r.Mirroring,
				r.CDF.Quantile(0.10), r.CDF.Quantile(0.50), r.CDF.Quantile(0.90),
				fracOver)
		}
	})
}

// FormatTable2 renders the VPN statistics.
func FormatTable2(rows []vpn.SpeedtestResult) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Table 2: ProtonVPN statistics (D=down, U=up, L=RTT)")
		fmt.Fprintln(w, "country\tserver (km)\tD (Mbps)\tU (Mbps)\tL (ms)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s (%.2f)\t%.2f\t%.2f\t%.2f\n",
				r.Country, r.Location, r.SpeedtestKm, r.DownMbps, r.UpMbps, r.LatencyMS)
		}
	})
}

// FormatFig6 renders the VPN energy bars.
func FormatFig6(rows []Fig6Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 6: energy through VPN tunnels (mAh, mean±std)")
		fmt.Fprintln(w, "location\tcountry\tbrowser\tenergy")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%s\t%.2f±%.2f\n",
				r.Location, r.Country, r.Browser, r.Energy.Mean, r.Energy.Std)
		}
	})
}

// FormatSysPerf renders the §4.2 system performance report.
func FormatSysPerf(r *SysPerfReport) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "System performance (§4.2)")
		fmt.Fprintf(w, "controller CPU extra (avg)\t%+.1f %%\n", r.CtlCPUExtraAvg)
		fmt.Fprintf(w, "memory extra\t%+.1f %% of 1 GB\n", r.MemExtraPct)
		fmt.Fprintf(w, "memory total\t%.1f %%\n", r.MemTotalPct)
		fmt.Fprintf(w, "stream upload\t%.1f MB over %s (bound %.1f MB)\n",
			r.UploadMB, r.TestDuration.Round(1e9), r.UploadBoundMB)
		fmt.Fprintf(w, "mirroring latency\t%.2f ± %.2f s (%d trials)\n",
			r.LatencyMean, r.LatencyStd, r.LatencyTrials)
	})
}

// FormatRelayOverhead renders the relay ablation.
func FormatRelayOverhead(r *RelayOverheadReport) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Ablation: relay circuit overhead")
		fmt.Fprintf(w, "direct median\t%.1f mA\n", r.DirectMedianMA)
		fmt.Fprintf(w, "relay median\t%.1f mA\n", r.RelayMedianMA)
		fmt.Fprintf(w, "delta\t%.2f %%\n", r.DeltaPct)
		fmt.Fprintf(w, "KS distance\t%.3f\n", r.KSDistance)
	})
}

// FormatBitrate renders the bitrate ablation.
func FormatBitrate(rows []BitrateRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "Ablation: mirroring bitrate cap (paper: %.1f Mbps)\n", mirrorDefaultCap)
		fmt.Fprintln(w, "cap (Mbps)\tdevice CPU (%)\tupload (MB/min)\tcurrent (mA)")
		for _, r := range rows {
			fmt.Fprintf(w, "%.1f\t%.1f\t%.1f\t%.1f\n", r.CapMbps, r.DeviceCPUPct, r.UploadMB, r.CurrentMA)
		}
	})
}

// FormatSampleRate renders the sampling-rate ablation.
func FormatSampleRate(rows []SampleRateRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Ablation: monitor sampling rate vs energy estimate")
		fmt.Fprintln(w, "rate (Hz)\tsamples\tenergy (mAh)\terror vs 5 kHz (%)")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r.RateHz, r.SampleCount, r.EnergyMAH, r.ErrorPct)
		}
	})
}

// FormatAutomation renders the automation-channel ablation.
func FormatAutomation(rows []AutomationRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Ablation: automation channel vs measurement purity")
		fmt.Fprintln(w, "channel\tmeasured (mA)\ttrue (mA)\tdistortion (%)\tmirroring")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%v\n",
				r.Channel, r.MeasuredMA, r.TrueMA, r.DistortionPct, r.SupportsMirror)
		}
	})
}

// FormatScheduler renders the scheduler ablation.
func FormatScheduler(rows []SchedulerRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Ablation: queue policy (6 builds, 2 devices)")
		fmt.Fprintln(w, "policy\tmakespan (s)\tavg wait (s)\tbuilds")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%d\n", r.Policy, r.MakespanS, r.AvgWaitS, r.BuildCount)
		}
	})
}

// FormatCampaign renders the campaign sweep: per-run energies plus the
// concurrency win over a sequential for-loop.
func FormatCampaign(rep *CampaignReport) string {
	out := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Campaign sweep: concurrent runs across vantage points")
		fmt.Fprintln(w, "node\tbrowser\tdischarge (mAh)")
		for _, r := range rep.Rows {
			if r.Err != "" {
				fmt.Fprintf(w, "%s\t%s\tFAILED: %s\n", r.Node, r.Browser, r.Err)
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%.2f\n", r.Node, r.Browser, r.EnergyMAH)
		}
	})
	speedup := 0.0
	if rep.Makespan > 0 {
		speedup = rep.SequentialSum.Seconds() / rep.Makespan.Seconds()
	}
	return out + fmt.Sprintf("makespan %s vs %s sequential (%.2fx)\n",
		rep.Makespan.Round(time.Second), rep.SequentialSum.Round(time.Second), speedup)
}
