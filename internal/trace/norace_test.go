//go:build !race

package trace

const raceEnabled = false
