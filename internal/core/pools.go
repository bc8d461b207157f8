package core

import (
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/ht"
)

// Engine-owned execution resources. A compiled plan owns everything
// specific to it — per-worker tile scratch, aggregation hash tables,
// positional bitmaps, partitioners — for its whole life. What lives on the
// engine is only what every plan shares: the persistent worker gang and
// the scatter arena partitioned plans append into, both guarded by
// e.execMu.

// ensureScatterLocked sizes the engine's shared scatter arena — the chunk
// pool every partitioned plan's workers append into — for a scan of rows
// pairs on nw workers across parts partitions, creating it on first use.
// ht.ChunksFor makes the reservation exhaustion-proof regardless of how
// the morsels split across workers, so the scatter phase never allocates
// mid-scan; the returned count (1 on a create or grow, 0 on a pure reuse)
// is the pool-miss signal billed to Explain.FreshAllocs. Callers hold
// e.execMu: the arena must not grow under a concurrently appending scan.
func (e *Engine) ensureScatterLocked(rows, nw, parts int) (*ht.ScatterPool, int) {
	need := ht.ChunksFor(rows, nw, parts)
	if e.scatter == nil {
		e.scatter = ht.NewScatterPool(need)
		return e.scatter, 1
	}
	if e.scatter.Reserve(need) {
		return e.scatter, 1
	}
	return e.scatter, 0
}

// growsSum totals the cumulative grow counters of a table set; the delta
// across a scan is Explain.HTGrows.
func growsSum(tabs []*ht.AggTable) uint64 {
	var s uint64
	for _, t := range tabs {
		s += t.Grows
	}
	return s
}

// steadyLocked returns the persistent worker gang, (re)building it when
// the requested worker count or the engine's morsel configuration changed.
// Callers must hold e.execMu for the whole scan, not just this call: the
// gang is single-flight by design (one parked goroutine set), which
// serializes scans and lets them share one set of warm resources instead
// of multiplying per-query state.
func (e *Engine) steadyLocked(workers int) *exec.Workers {
	if e.gang == nil || e.gangN != workers || e.gangMorsel != e.MorselRows {
		if e.gang != nil {
			e.gang.Close()
		}
		e.gang = exec.NewWorkers(workers, e.MorselRows)
		e.gangN = workers
		e.gangMorsel = e.MorselRows
	}
	return e.gang
}
