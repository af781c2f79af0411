package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"batterylab/internal/browser"
)

// testOpts shrinks the paper's parameters so the whole suite stays fast;
// the bench harness runs the full-scale versions.
func testOpts() Options {
	return Options{
		Seed:          2019,
		Repetitions:   2,
		Pages:         3,
		Scrolls:       4,
		SampleRate:    100,
		VideoDuration: 40 * time.Second,
	}
}

func TestFig2Shapes(t *testing.T) {
	rows, err := Fig2Accuracy(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	gap, err := SummarizeFig2(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1: direct vs relay is negligible.
	if gap.DirectRelayKS > 0.15 {
		t.Fatalf("direct/relay KS = %.3f, want negligible", gap.DirectRelayKS)
	}
	// Claim 2: mirroring lifts the median from ~160 toward ~220 mA.
	if gap.MedianNoMirror < 140 || gap.MedianNoMirror > 185 {
		t.Fatalf("relay median = %.1f, want ~160", gap.MedianNoMirror)
	}
	if gap.MirrorLiftMA < 30 || gap.MirrorLiftMA > 100 {
		t.Fatalf("mirror lift = %.1f mA, want ~60", gap.MirrorLiftMA)
	}
	out := FormatFig2(rows)
	if !strings.Contains(out, "relay-mirroring") {
		t.Fatalf("format: %q", out)
	}
}

func TestFig3Shapes(t *testing.T) {
	rows, err := Fig3BrowserEnergy(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	f := SummarizeFig3(rows)
	// Claim 1: Brave draws least, Firefox most, independent of
	// mirroring.
	if f.Order[0] != "Brave" {
		t.Fatalf("cheapest = %s, want Brave (order %v)", f.Order[0], f.Order)
	}
	if f.Order[len(f.Order)-1] != "Firefox" {
		t.Fatalf("dearest = %s, want Firefox (order %v)", f.Order[len(f.Order)-1], f.Order)
	}
	// Claim 2: the mirroring extra is positive and roughly constant
	// across browsers.
	var extras []float64
	for _, e := range f.MirrorExtras {
		if e <= 0 {
			t.Fatalf("mirroring made a browser cheaper: %v", f.MirrorExtras)
		}
		extras = append(extras, e)
	}
	mean := 0.0
	for _, e := range extras {
		mean += e
	}
	mean /= float64(len(extras))
	if f.ExtraSpreadMAH > 0.75*mean {
		t.Fatalf("mirroring extra not constant: spread %.2f vs mean %.2f (%v)",
			f.ExtraSpreadMAH, mean, f.MirrorExtras)
	}
	out := FormatFig3(rows)
	if !strings.Contains(out, "Firefox") {
		t.Fatalf("format: %q", out)
	}
}

func TestFig4Shapes(t *testing.T) {
	rows, err := Fig4DeviceCPU(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, r := range rows {
		key := r.Browser
		if r.Mirroring {
			key += "+mirror"
		}
		med[key] = r.CDF.Median()
	}
	// Claim 1: Brave's median CPU ≈ 12 % vs Chrome ≈ 20 %.
	if m := med["Brave"]; m < 8 || m > 16 {
		t.Fatalf("Brave median = %.1f, want ~12", m)
	}
	if m := med["Chrome"]; m < 16 || m > 25 {
		t.Fatalf("Chrome median = %.1f, want ~20", m)
	}
	if med["Brave"] >= med["Chrome"] {
		t.Fatal("Brave should sit below Chrome")
	}
	// Claim 2: mirroring adds ≈ 5 % for both.
	for _, b := range []string{"Brave", "Chrome"} {
		delta := med[b+"+mirror"] - med[b]
		if delta < 1.5 || delta > 10 {
			t.Fatalf("%s mirroring CPU delta = %.1f, want ~5", b, delta)
		}
	}
	if !strings.Contains(FormatFig4(rows), "Chrome") {
		t.Fatal("format")
	}
}

func TestFig5Shapes(t *testing.T) {
	rows, err := Fig5ControllerCPU(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var off, on Fig5Row
	for _, r := range rows {
		if r.Mirroring {
			on = r
		} else {
			off = r
		}
	}
	// Claim 1: without mirroring the controller sits flat around 25 %.
	if m := off.CDF.Median(); m < 20 || m > 30 {
		t.Fatalf("no-mirror median = %.1f, want ~25", m)
	}
	if spread := off.CDF.Quantile(0.9) - off.CDF.Quantile(0.1); spread > 12 {
		t.Fatalf("no-mirror spread = %.1f, want flat", spread)
	}
	// Claim 2: with mirroring the median rises to ~75 % and the top
	// decile saturates.
	if m := on.CDF.Median(); m < 60 || m > 90 {
		t.Fatalf("mirror median = %.1f, want ~75", m)
	}
	fracOver95 := 1 - on.CDF.At(95)
	if fracOver95 < 0.02 || fracOver95 > 0.30 {
		t.Fatalf("frac > 95%% = %.2f, want ~0.10", fracOver95)
	}
	if !strings.Contains(FormatFig5(rows), "mirroring") {
		t.Fatal("format")
	}
}

func TestTable2Shapes(t *testing.T) {
	rows, err := Table2Rows(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by download; endpoints match the paper.
	if rows[0].Country != "South Africa" || rows[4].Country != "CA, USA" {
		t.Fatalf("order: %s ... %s", rows[0].Country, rows[4].Country)
	}
	paper := map[string][3]float64{
		"South Africa": {6.26, 9.77, 222.04},
		"China":        {7.64, 7.77, 286.32},
		"Japan":        {9.68, 7.76, 239.38},
		"Brazil":       {9.75, 8.82, 235.05},
		"CA, USA":      {10.63, 14.87, 215.16},
	}
	for _, r := range rows {
		want := paper[r.Country]
		if math.Abs(r.DownMbps-want[0])/want[0] > 0.2 {
			t.Errorf("%s down %.2f vs paper %.2f", r.Country, r.DownMbps, want[0])
		}
		if math.Abs(r.LatencyMS-want[2])/want[2] > 0.2 {
			t.Errorf("%s rtt %.1f vs paper %.1f", r.Country, r.LatencyMS, want[2])
		}
	}
	if !strings.Contains(FormatTable2(rows), "Johannesburg") {
		t.Fatal("format")
	}
}

func TestFig6Shapes(t *testing.T) {
	rows, err := Fig6VPNEnergy(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 locations × 2 browsers
		t.Fatalf("rows = %d", len(rows))
	}
	f := SummarizeFig6(rows)
	// Claim 2: Chrome dips at the Japanese exit.
	if f.ChromeJapanDipPct >= 0 {
		t.Fatalf("Chrome Japan dip = %+.1f%%, want negative", f.ChromeJapanDipPct)
	}
	// Brave stays within noise everywhere; per-location Brave means
	// should all be within ~8%% of each other.
	var braveMin, braveMax float64
	first := true
	for _, r := range rows {
		if r.Browser != "Brave" {
			continue
		}
		if first || r.Energy.Mean < braveMin {
			braveMin = r.Energy.Mean
		}
		if first || r.Energy.Mean > braveMax {
			braveMax = r.Energy.Mean
		}
		first = false
	}
	if (braveMax-braveMin)/braveMax > 0.10 {
		t.Fatalf("Brave spread across locations = %.1f%%, want small",
			100*(braveMax-braveMin)/braveMax)
	}
	if !strings.Contains(FormatFig6(rows), "Bunkyo") {
		t.Fatal("format")
	}
}

func TestSysPerfShapes(t *testing.T) {
	rep, err := SysPerf(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Controller CPU extra ≈ +50 points on average.
	if rep.CtlCPUExtraAvg < 30 || rep.CtlCPUExtraAvg > 65 {
		t.Fatalf("ctl CPU extra = %.1f, want ~50", rep.CtlCPUExtraAvg)
	}
	// Memory: +≈6 %, total < 20 %.
	if rep.MemExtraPct < 3 || rep.MemExtraPct > 9 {
		t.Fatalf("mem extra = %.1f%%, want ~6", rep.MemExtraPct)
	}
	if rep.MemTotalPct >= 20 {
		t.Fatalf("mem total = %.1f%%, want < 20", rep.MemTotalPct)
	}
	// Upload below the bitrate bound, and a substantial fraction of it.
	if rep.UploadMB <= 0 || rep.UploadMB > rep.UploadBoundMB {
		t.Fatalf("upload %.1f MB vs bound %.1f MB", rep.UploadMB, rep.UploadBoundMB)
	}
	if rep.UploadMB < 0.3*rep.UploadBoundMB {
		t.Fatalf("upload %.1f MB too far below bound %.1f MB", rep.UploadMB, rep.UploadBoundMB)
	}
	// Latency 1.44 ± 0.12 s.
	if math.Abs(rep.LatencyMean-1.44) > 0.15 {
		t.Fatalf("latency mean = %.2f, want ~1.44", rep.LatencyMean)
	}
	if rep.LatencyTrials != 40 {
		t.Fatalf("trials = %d", rep.LatencyTrials)
	}
	if !strings.Contains(FormatSysPerf(rep), "latency") {
		t.Fatal("format")
	}
}

func TestAblationRelayOverhead(t *testing.T) {
	rep, err := AblationRelayOverhead(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.DeltaPct) > 3 {
		t.Fatalf("relay delta = %.2f%%, want < 3%%", rep.DeltaPct)
	}
	if !strings.Contains(FormatRelayOverhead(rep), "KS distance") {
		t.Fatal("format")
	}
}

func TestAblationBitrate(t *testing.T) {
	rows, err := AblationBitrate(testOpts(), []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher cap → more upload.
	if rows[1].UploadMB <= rows[0].UploadMB {
		t.Fatalf("upload should grow with cap: %+v", rows)
	}
	if !strings.Contains(FormatBitrate(rows), "cap (Mbps)") {
		t.Fatal("format")
	}
}

func TestAblationSampleRate(t *testing.T) {
	rows, err := AblationSampleRate(testOpts(), []int{50, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ErrorPct > 2.0 {
			t.Fatalf("rate %d error = %.2f%%, want small", r.RateHz, r.ErrorPct)
		}
	}
	// More samples at higher rates.
	if rows[1].SampleCount <= rows[0].SampleCount {
		t.Fatalf("sample counts: %+v", rows)
	}
	if !strings.Contains(FormatSampleRate(rows), "5 kHz") {
		t.Fatal("format")
	}
}

func TestAblationAutomation(t *testing.T) {
	rows, err := AblationAutomation(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AutomationRow{}
	for _, r := range rows {
		byName[r.Channel] = r
	}
	// USB: heavily distorted. WiFi and BT: faithful.
	if byName["adb-usb"].DistortionPct < 50 {
		t.Fatalf("USB distortion = %.1f%%, want large", byName["adb-usb"].DistortionPct)
	}
	for _, ch := range []string{"adb-wifi", "bt-keyboard"} {
		if byName[ch].DistortionPct > 8 {
			t.Fatalf("%s distortion = %.1f%%, want small", ch, byName[ch].DistortionPct)
		}
	}
	if byName["bt-keyboard"].SupportsMirror {
		t.Fatal("BT keyboard cannot support mirroring")
	}
	if !strings.Contains(FormatAutomation(rows), "bt-keyboard") {
		t.Fatal("format")
	}
}

func TestAblationScheduler(t *testing.T) {
	rows, err := AblationScheduler(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	perDev, whole := rows[0], rows[1]
	// Per-device locking overlaps work across devices: shorter makespan
	// and shorter waits.
	if perDev.MakespanS >= whole.MakespanS {
		t.Fatalf("per-device makespan %.0f should beat whole-node %.0f",
			perDev.MakespanS, whole.MakespanS)
	}
	if perDev.AvgWaitS >= whole.AvgWaitS {
		t.Fatalf("per-device wait %.0f should beat whole-node %.0f",
			perDev.AvgWaitS, whole.AvgWaitS)
	}
	if !strings.Contains(FormatScheduler(rows), "per-device-lock") {
		t.Fatal("format")
	}
}

func TestEnvBrowserLookup(t *testing.T) {
	env, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Browser("Brave"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Browser("Netscape"); err == nil {
		t.Fatal("unknown browser found")
	}
	if len(BrowserNames()) != 4 {
		t.Fatal("browser names")
	}
}

// Browser returns an installed study browser by name.
func (e *Env) Browser(name string) (*browser.Browser, error) {
	b, ok := e.browsers[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no browser %q", name)
	}
	return b, nil
}
