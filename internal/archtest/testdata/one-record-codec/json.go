package store

import "encoding/json"

// marshalRecord is the second write path the one codec retired.
func marshalRecord(r Record) ([]byte, error) {
	return json.Marshal(r)
}

var _ = marshalRecord // reached, so only the rule under test trips
