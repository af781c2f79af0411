package api

import tr "batterylab/internal/trace"

// seriesPoints decodes a frame body through a trace.Series, the trace
// package under an alias.
func seriesPoints(body []byte) (int, error) {
	s, err := tr.DecodeBinary(body)
	if err != nil {
		return 0, err
	}
	return s.Len(), nil
}

var _ = seriesPoints // reached, so only the rule under test trips
