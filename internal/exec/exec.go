// Package exec implements the morsel-driven parallel executor that the
// engine in internal/core dispatches its tiled kernels on.
//
// The design follows the standard for in-memory OLAP engines (Leis et al.,
// SIGMOD 2014): a relation's row range is split into cache-sized *morsels*,
// and a fixed gang of workers claims morsels from a shared atomic counter
// until the range is exhausted. Dynamic claiming gives load balance without
// a scheduler; the counter is the only shared mutable state during a scan.
// Every SWOLE pullup stays branch-free *inside* a morsel — value masking,
// key masking and positional-bitmap probes run the same tiled kernels as
// the sequential engine — and each worker accumulates into private partial
// state (scalar lanes, per-worker group hash tables) or into word-disjoint
// ranges of a shared positional bitmap, which the caller merges after Run
// returns, so no kernel ever synchronizes on the hot path.
package exec

import "github.com/reprolab/swole/internal/vec"

// DefaultMorselRows is the default morsel length in rows. At 64 tiles
// (65536 rows) a morsel's widest single-column working set is 512 KB of
// int64 — large enough that the atomic claim and function-call overhead
// amortize to noise, small enough that a straggling worker holds at most
// one morsel of residual work and that per-worker tile scratch plus the
// hottest column stripe stay within a per-core L2. It is a multiple of
// vec.TileSize so kernels see only full tiles except at the relation's
// global tail, and a multiple of 64 so a morsel's positional-bitmap range
// never straddles a word boundary shared with another morsel.
const DefaultMorselRows = 64 * vec.TileSize

// resolveMorselRows maps a configured morsel length to an executable one:
// non-positive selects the default, everything else rounds up to a full
// tile (which also keeps morsel ranges word-aligned for positional
// bitmaps).
func resolveMorselRows(m int) int {
	if m <= 0 {
		return DefaultMorselRows
	}
	if r := m % vec.TileSize; r != 0 {
		m += vec.TileSize - r
	}
	return m
}
