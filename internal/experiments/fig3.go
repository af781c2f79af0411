package experiments

import (
	"fmt"

	"batterylab/internal/stats"
)

// Fig3Row is one browser's bar pair in Figure 3: average battery
// discharge (mAh) with standard deviation, with mirroring inactive and
// active.
type Fig3Row struct {
	Browser   string
	MirrorOff stats.Summary
	MirrorOn  stats.Summary
}

// Fig3BrowserEnergy reproduces Figure 3 (§4.2): per-browser battery
// discharge across repetitions of the 10-page news workload, mirroring
// off and on. Expected shape: Brave lowest, Firefox highest, mirroring a
// browser-independent constant extra.
func Fig3BrowserEnergy(opts Options) ([]Fig3Row, error) {
	opts = opts.withDefaults()
	var rows []Fig3Row
	for bi, name := range BrowserNames() {
		env, err := NewEnv(opts.Seed + uint64(bi)*977)
		if err != nil {
			return nil, err
		}
		row := Fig3Row{Browser: name}
		for _, mirroring := range []bool{false, true} {
			var energies []float64
			for rep := 0; rep < opts.Repetitions; rep++ {
				spec := opts.browserSpec("node1", env.Serial, name)
				spec.Mirroring = mirroring
				res, err := env.run(spec)
				if err != nil {
					return nil, fmt.Errorf("fig3 %s rep %d (mirror=%v): %w", name, rep, mirroring, err)
				}
				energies = append(energies, res.EnergyMAH)
			}
			if mirroring {
				row.MirrorOn = stats.Summarize(energies)
			} else {
				row.MirrorOff = stats.Summarize(energies)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3Findings summarizes the figure's claims.
type Fig3Findings struct {
	// Order is the browsers sorted by mirror-off energy ascending.
	Order []string
	// MirrorExtras is the per-browser mirroring cost (mAh).
	MirrorExtras map[string]float64
	// ExtraSpreadMAH is max-min of the mirroring extras: small means
	// "constant extra cost regardless of the browser being tested".
	ExtraSpreadMAH float64
}

// SummarizeFig3 derives the findings from the rows.
func SummarizeFig3(rows []Fig3Row) Fig3Findings {
	f := Fig3Findings{MirrorExtras: make(map[string]float64)}
	sorted := append([]Fig3Row{}, rows...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].MirrorOff.Mean < sorted[i].MirrorOff.Mean {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	var min, max float64
	for i, r := range sorted {
		f.Order = append(f.Order, r.Browser)
		extra := r.MirrorOn.Mean - r.MirrorOff.Mean
		f.MirrorExtras[r.Browser] = extra
		if i == 0 || extra < min {
			min = extra
		}
		if i == 0 || extra > max {
			max = extra
		}
	}
	f.ExtraSpreadMAH = max - min
	return f
}
