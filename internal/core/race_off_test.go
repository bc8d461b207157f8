//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation-count gates are skipped under it (see stats_test.go).
const raceEnabled = false
