//go:build race

package core

// raceEnabled: under the race detector the compiler does not fuse
// append(b, make([]byte, n)...), so every bytes.Buffer growth allocates
// its new buffer twice and byte counts are not those of a normal build.
const raceEnabled = true
