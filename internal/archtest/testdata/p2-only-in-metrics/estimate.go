package trace

import "batterylab/internal/samples"

// estimatedP95 is a series' P95 as P² estimates it, beside the exact one
// its summary gives.
func estimatedP95(s *Series) float64 {
	e := samples.NewP2Quantile(0.95)
	s.Samples().Chunks(0, func(_ []int64, v []float64) bool {
		e.ObserveRun(v)
		return true
	})
	return e.Value()
}

var _ = estimatedP95 // reached, so only the rule under test trips
