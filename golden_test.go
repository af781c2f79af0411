package batterylab

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"testing"
)

// TestGoldenCapture pins the 5 kHz capture path to fixed outputs: the
// values were taken from the commit before the allocation-free sample
// path landed, so any drift in the noise streams, the summation order,
// the ticker's deadlines or the CSV writer shows up as a changed sample
// count, energy bit pattern or file digest. The repo benchmark's
// bit-for-bit check compares two runs of one binary and cannot see that.
func TestGoldenCapture(t *testing.T) {
	cases := []struct {
		browser string
		samples int
		energy  string // strconv 'g' -1: round-trips the float64 exactly
		csvSHA  string
	}{
		{"Chrome", 167499, "2.695836177777851", "011589bb852c53a685bad98aa3399432637fab09ca16dbc6deed40363544c62b"},
		{"Brave", 167499, "2.0446113222220879", "71c52adc8310da7c9dab82c12954477851e00ad61da453e1861be50d52f42a06"},
	}
	// One deployment, experiments back to back: the second capture starts
	// from the device and clock state the first one left.
	dep, err := NewDeployment(VirtualClock(), DeploymentConfig{Seed: 2019})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.browser, func(t *testing.T) {
			sess, err := dep.Platform.StartExperimentSpec(ctx, ExperimentSpecV1{
				Node:    dep.NodeName,
				Device:  dep.DeviceSerial,
				Monitor: MonitorSpec{SampleRateHz: 5000},
				Workload: WorkloadSpec{Name: "browser", Params: Params{
					"browser": tc.browser, "pages": 2, "scrolls": 4,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Current.Len(); got != tc.samples {
				t.Errorf("samples = %d, want %d", got, tc.samples)
			}
			want, err := strconv.ParseFloat(tc.energy, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.EnergyMAH) != math.Float64bits(want) {
				t.Errorf("EnergyMAH = %s, want %s", strconv.FormatFloat(res.EnergyMAH, 'g', -1, 64), tc.energy)
			}
			h := sha256.New()
			if err := res.Current.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.csvSHA {
				t.Errorf("sha256(current.csv) = %s, want %s", got, tc.csvSHA)
			}
		})
	}
}
