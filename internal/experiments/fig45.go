package experiments

import (
	"fmt"

	"batterylab/internal/stats"
)

// Fig4Row is one CDF of Figure 4: device CPU utilization for a browser
// with mirroring inactive or active.
type Fig4Row struct {
	Browser   string
	Mirroring bool
	CDF       *stats.CDF
}

// Fig4DeviceCPU reproduces Figure 4 (§4.2): CDFs of device CPU for Brave
// and Chrome, mirroring on/off. Expected shape: Brave's median ≈ 12 %
// vs Chrome's ≈ 20 %; mirroring shifts both right by ≈ 5 %.
func Fig4DeviceCPU(opts Options) ([]Fig4Row, error) {
	opts = opts.withDefaults()
	var rows []Fig4Row
	i := 0
	for _, name := range []string{"Brave", "Chrome"} {
		for _, mirroring := range []bool{false, true} {
			env, err := NewEnv(opts.Seed + uint64(i)*1511)
			i++
			if err != nil {
				return nil, err
			}
			spec := opts.browserSpec("node1", env.Serial, name)
			spec.Mirroring = mirroring
			res, err := env.run(spec)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s (mirror=%v): %w", name, mirroring, err)
			}
			cdf, err := res.DeviceCPU.CDF()
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig4Row{Browser: name, Mirroring: mirroring, CDF: cdf})
		}
	}
	return rows, nil
}

// Fig5Row is one CDF of Figure 5: controller CPU with mirroring
// inactive or active during the Chrome workload.
type Fig5Row struct {
	Mirroring bool
	CDF       *stats.CDF
}

// Fig5ControllerCPU reproduces Figure 5 (§4.2): CDFs of Raspberry Pi CPU
// during Chrome experiments. Expected shape: without mirroring a flat
// ≈ 25 % (Monsoon polling); with mirroring a ≈ 75 % median and ≥ 95 %
// in the top decile.
func Fig5ControllerCPU(opts Options) ([]Fig5Row, error) {
	opts = opts.withDefaults()
	var rows []Fig5Row
	for i, mirroring := range []bool{false, true} {
		env, err := NewEnv(opts.Seed + uint64(i)*2221)
		if err != nil {
			return nil, err
		}
		spec := opts.browserSpec("node1", env.Serial, "Chrome")
		spec.Mirroring = mirroring
		res, err := env.run(spec)
		if err != nil {
			return nil, fmt.Errorf("fig5 (mirror=%v): %w", mirroring, err)
		}
		cdf, err := res.ControllerCPU.CDF()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{Mirroring: mirroring, CDF: cdf})
	}
	return rows, nil
}
