//go:build race

package trace

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so allocation counts through a pool are not steady.
const raceEnabled = true
