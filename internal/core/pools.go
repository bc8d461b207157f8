package core

import (
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/vec"
)

// Engine-owned execution resources. A compiled plan owns everything
// specific to it — aggregation hash tables, positional bitmaps,
// partitioners, result buffers, and for the hand-specialized group-by its
// per-worker tile scratch — for its whole life. What lives on the engine is
// only what every plan shares: the persistent worker gang, the scatter
// arena partitioned plans append into, and the tile scratch every generic
// plan (select.go) runs on, all guarded by e.execMu.

// tileScratch is one worker's tile buffers for the generic executor beyond
// the shared workerState set: the residual mask, per-edge parent positions,
// gather positions, group slots, and one int64 vector per joined-schema
// column a statement reads. Nothing in it outlives a tile, so one set
// serves every generic plan on the engine and a never-seen statement's
// compile allocates no tile buffers.
type tileScratch struct {
	tcmp   []byte
	slots  []int32
	gpos   []int32
	pos    [maxSelectEdges][]int32 // lane-indexed parent positions per edge
	posBuf [maxSelectEdges][]int32 // backing for edges chained off another edge
	vecs   [][]int64
}

// ensureGenLocked makes the generic executor's scratch hold at least nw
// workers' sets of at least nVecs tile vectors each, and the emission's
// evaluator. Like ensureScatterLocked it returns the pool-miss count billed
// to Explain.FreshAllocs: 1 when anything was allocated, 0 on a pure reuse.
// Growing may move both slices, so plans index them per run and keep no
// header. Callers hold e.execMu.
func (e *Engine) ensureGenLocked(nw, nVecs int) int {
	fresh := 0
	if e.genEmit == nil {
		// Uncounted: HAVING and a computed projection are not tile kernels.
		e.genEmit, fresh = expr.NewEvaluator(), 1
	}
	for len(e.genStates) < nw {
		t := tileScratch{
			tcmp:  make([]byte, vec.TileSize),
			slots: make([]int32, vec.TileSize),
			gpos:  make([]int32, vec.TileSize),
		}
		for i := range t.posBuf {
			t.posBuf[i] = make([]int32, vec.TileSize)
		}
		e.genStates = append(e.genStates, newWorkerState())
		e.genTiles = append(e.genTiles, t)
		fresh = 1
	}
	for w := range e.genTiles {
		t := &e.genTiles[w]
		for len(t.vecs) < nVecs {
			t.vecs = append(t.vecs, make([]int64, vec.TileSize))
			fresh = 1
		}
	}
	return fresh
}

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

// Reconfigure runs f with no compile or execution in flight on the engine —
// the one safe place to write the configuration fields compiles read
// (Workers, MorselRows, Partition, Params). Every compile holds the same
// lock from its first configuration read to its last, so a plan is built
// under exactly one configuration.
func (e *Engine) Reconfigure(f func()) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	f()
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
