//go:build race

package runtime

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates on its own and invalidates allocation counts.
const raceEnabled = true
