//go:build !race

package swole

// raceEnabled reports whether the race detector instruments this build;
// allocation-count gates are skipped under it (see select_edges_test.go and
// internal/core's identical guard).
const raceEnabled = false
