//go:build !race

package spd3_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
