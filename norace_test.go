//go:build !race

package tlc

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
