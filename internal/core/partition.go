package core

import (
	"github.com/reprolab/swole/internal/ht"
)

// Radix-partitioned two-phase group-by execution — the paper's access-
// aware philosophy applied one level below the masking decision. The
// direct path sends every tuple through a random probe of a full-size
// per-worker hash table; once the table overflows the cache budget those
// probes are DRAM round-trips. The partitioned path replaces them with
// two sequential passes:
//
//	phase 1  workers claim morsels, evaluate key and aggregate input
//	         (masking applied exactly as on the direct path), and append
//	         the (key, value) pair to a per-worker buffer selected by the
//	         key hash's top bits — sequential writes, no hash table.
//	phase 2  workers claim disjoint partitions; for each, they fold every
//	         worker's buffer for that partition into one small table
//	         sized htBytes/parts — cache-resident by construction — and
//	         emit its groups directly.
//
// Because a radix partition owns its keys exclusively, phase 2 needs no
// cross-worker merge: each partition's groups are final when its fold
// ends, and the result is gathered straight from the per-partition
// emissions (groupEmit.finishFrom).

// subTableHint sizes a phase-2 partition table: the estimated groups
// spread evenly over the fan-out. No extra skew headroom: the radix hash
// balances partitions to within a few standard deviations of the mean,
// the table's own hint-to-capacity doubling leaves the expected load
// under 50%, and the sampled group count already skews high. Staying
// under the power-of-two capacity step matters twice per run — the fold
// probes a table half the footprint, and the emission scan walks half
// the slots — and an underestimate costs one rehash whose capacity
// ratchets in the plan's table.
func subTableHint(groups, parts int) int {
	return groups/parts + 8
}

// foldPartition aggregates one partition's pairs from every worker's
// chunk list into tab (Reset first). The partition's keys appear in no
// other partition, so tab holds those groups' final sums afterwards. Each
// chunk folds through ht.AggTable.FoldPairs, which touches probe targets
// ht.PrefetchDist pairs ahead when (and only when) the table spills past
// the cache budget. It returns the number of pairs folded with the
// lookahead, which the kernels tally into the prefetch counters.
func foldPartition(tab *ht.AggTable, parters []*ht.Partitioner, part int) int {
	tab.Reset()
	n := 0
	for _, pr := range parters {
		for c := pr.Head(part); c >= 0; c = pr.NextChunk(c) {
			keys, vals := pr.Chunk(part, c)
			n += tab.FoldPairs(keys, vals)
		}
	}
	return n
}
