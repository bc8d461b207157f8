// Package ht implements the open-addressing hash tables used by every
// strategy in this repository: AggTable for group-by aggregation (including
// the throwaway record required by SWOLE's key masking and the
// validity bookkeeping required by value masking, paper Section III-B), and
// KeyTable, a table of unique keys: JoinTable for equijoin build sides and
// SetTable for semijoins.
//
// All tables use 64-bit keys with a Murmur3-style finalizer hash and linear
// probing over power-of-two capacities. Multi-attribute keys are packed into
// a single int64 by the callers (all group-by and join keys in the paper's
// workloads are small dictionary codes or dense surrogate keys).
package ht

import "math"

// NullKey is the reserved key used by key masking (Section III-B): tuples
// filtered by a pulled-up predicate have their group-by key masked to
// NullKey, which maps to a dedicated throwaway record that stays cached. A
// key-addressed table's tile fold reaches that record from the mask alone
// (AggTable.FoldTileKeyMasked), with no NullKey written.
const NullKey int64 = math.MinInt64

// hash64 is the 64-bit finalizer from MurmurHash3, a strong cheap mixer.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// nextPow2 returns the smallest power of two >= n (minimum 8).
func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// maxHint caps cardinality hints. 2^40 groups is far past addressable
// memory for any slot layout in this package; the cap exists so that a
// corrupt or adversarial hint near MaxInt cannot overflow the hint*2
// sizing arithmetic below into a tiny (or negative) capacity.
const maxHint = 1 << 40

// hintCap maps a caller-supplied cardinality hint to a slot capacity:
// twice the hint, rounded up to a power of two. Non-positive hints (an
// empty table, a zero or failed estimate) clamp to zero explicitly and
// get nextPow2's minimum capacity of 8 rather than relying on what a
// negative product happens to do.
func hintCap(hint int) int {
	if hint < 0 {
		hint = 0
	}
	if hint > maxHint {
		hint = maxHint
	}
	return nextPow2(hint * 2)
}
