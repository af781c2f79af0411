// Package framerule is the fixture TestFrameIsBytes must reject: a
// sample frame decoded through a trace.Series, the trace package under
// an alias.
package framerule

import tr "batterylab/internal/trace"

// points decodes a frame body the way internal/api must not.
func points(body []byte) (int, error) {
	s, err := tr.DecodeBinary(body)
	if err != nil {
		return 0, err
	}
	return s.Len(), nil
}
