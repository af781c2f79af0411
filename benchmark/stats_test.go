package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(vals, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([3.0, 5.0], n=4) == [2.5, 4.0, 5.5]
	q1, q3 = quartiles([]float64{3, 5})
	if q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles = %v, %v; want 2.5, 5.5", q1, q3)
	}
}

// The reporting rule: the median, plus the highest percentile with at
// least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for n, want := range map[int]float64{8: 0, 49: 0, 50: 80, 99: 80, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tail percentile for %d samples = %v, want %v", n, got, want)
		}
	}
}

// Every tail percentile named in the per-layer table must satisfy the
// rule within a single pass at the frozen sizes.
func TestNamedTailsHaveEnoughSamples(t *testing.T) {
	perPass := map[string]int{
		"client.submit_ms": frozenSizes.BacklogCampaigns,
		"client.status_ms": frozenSizes.BacklogCampaigns * frozenSizes.CampaignSize,
	}
	for _, d := range perLayer {
		series, p, ok := splitPercentile(d.Name)
		if !ok || p == 50 {
			continue
		}
		n, known := perPass[series]
		if !known {
			t.Errorf("%s: no per-pass sample count on record for %s", d.Name, series)
			continue
		}
		if beyond := float64(n) * (100 - p) / 100; beyond < 10 {
			t.Errorf("%s: %d samples a pass leave %.1f beyond p%v, want at least 10", d.Name, n, beyond, p)
		}
	}
}

func TestSplitPercentile(t *testing.T) {
	if s, p, ok := splitPercentile("client.status_ms_p99"); !ok || s != "client.status_ms" || p != 99 {
		t.Errorf("got %q %v %v", s, p, ok)
	}
	for _, name := range []string{"proc.peak_rss_mb", "builds_per_s", "store.fsyncs"} {
		if _, _, ok := splitPercentile(name); ok {
			t.Errorf("%s parsed as a percentile", name)
		}
	}
}
