//go:build race

package legal_test

// raceEnabled reports whether the race detector is compiled in. Under
// the detector sync.Pool drops pooled scratch at random, so
// testing.AllocsPerRun reports allocations for an Evaluate that is
// allocation-free in a normal build.
const raceEnabled = true
