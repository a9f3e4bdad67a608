//go:build !race

package runtime

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
