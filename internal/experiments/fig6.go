package experiments

import (
	"fmt"

	"batterylab/internal/stats"
	"batterylab/internal/vpn"
)

// Table2Rows reproduces Table 2 (§4.3): speedtest statistics through the
// five ProtonVPN exits, sorted by download bandwidth.
func Table2Rows(opts Options) ([]vpn.SpeedtestResult, error) {
	opts = opts.withDefaults()
	env, err := NewEnv(opts.Seed)
	if err != nil {
		return nil, err
	}
	return env.Ctl.VPN().Table2()
}

// Fig6Row is one bar of Figure 6: a browser's average discharge (mAh,
// with stddev) through one VPN exit.
type Fig6Row struct {
	Location string
	Country  string
	Browser  string
	Energy   stats.Summary
}

// Fig6VPNEnergy reproduces Figure 6 (§4.3): Brave and Chrome energy
// through each VPN location. Expected shape: location differences stay
// within the error bars, except Chrome at the Japanese exit, which dips
// because its ad payloads shrink ~20 % there.
func Fig6VPNEnergy(opts Options) ([]Fig6Row, error) {
	opts = opts.withDefaults()
	var rows []Fig6Row
	i := 0
	for _, exit := range vpn.Exits() {
		for _, name := range []string{"Brave", "Chrome"} {
			env, err := NewEnv(opts.Seed + uint64(i)*3301)
			i++
			if err != nil {
				return nil, err
			}
			var energies []float64
			for rep := 0; rep < opts.Repetitions; rep++ {
				spec := opts.browserSpec("node1", env.Serial, name)
				spec.VPNLocation = exit.Location
				res, err := env.run(spec)
				if err != nil {
					return nil, fmt.Errorf("fig6 %s@%s rep %d: %w", name, exit.Location, rep, err)
				}
				energies = append(energies, res.EnergyMAH)
			}
			rows = append(rows, Fig6Row{
				Location: exit.Location, Country: exit.Country,
				Browser: name, Energy: stats.Summarize(energies),
			})
		}
	}
	return rows, nil
}

// Fig6Findings summarizes the figure's two claims.
type Fig6Findings struct {
	// MaxBraveSpreadSigma is the largest |location mean - overall mean|
	// for Brave, in units of the per-location stddev: ≲ 1-2 means
	// "variation stays within standard deviation bounds".
	MaxBraveSpreadSigma float64
	// ChromeJapanDipPct is Chrome's Japan energy relative to its mean
	// across the other locations, in percent (negative = dip).
	ChromeJapanDipPct float64
}

// SummarizeFig6 derives the findings.
func SummarizeFig6(rows []Fig6Row) Fig6Findings {
	var braveMeans, braveStds []float64
	var chromeOther []float64
	var chromeJapan float64
	for _, r := range rows {
		switch r.Browser {
		case "Brave":
			braveMeans = append(braveMeans, r.Energy.Mean)
			braveStds = append(braveStds, r.Energy.Std)
		case "Chrome":
			if r.Country == "Japan" {
				chromeJapan = r.Energy.Mean
			} else {
				chromeOther = append(chromeOther, r.Energy.Mean)
			}
		}
	}
	var f Fig6Findings
	overall := stats.Mean(braveMeans)
	for i, m := range braveMeans {
		sigma := braveStds[i]
		if sigma == 0 {
			continue
		}
		dev := m - overall
		if dev < 0 {
			dev = -dev
		}
		if s := dev / sigma; s > f.MaxBraveSpreadSigma {
			f.MaxBraveSpreadSigma = s
		}
	}
	otherMean := stats.Mean(chromeOther)
	if otherMean > 0 {
		f.ChromeJapanDipPct = 100 * (chromeJapan - otherMean) / otherMean
	}
	return f
}
