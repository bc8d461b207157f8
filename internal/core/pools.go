package core

import (
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/vec"
)

// Engine-owned execution resources. A compiled plan owns everything
// specific to it — group tables, positional bitmaps, result buffers — for
// its whole life. What lives on the engine is only what every plan shares:
// the persistent worker gang and the tile scratch every plan runs on, both
// guarded by e.execMu.

// tileScratch is one worker's tile buffers beyond its workerState: the
// residual mask, per-edge parent positions, gather positions, group slots,
// and one int64 vector per joined-schema column a statement reads. Nothing
// in it outlives a tile, so one set serves every plan on the engine and a
// never-seen statement's compile allocates no tile buffers.
type tileScratch struct {
	tcmp   []byte
	slots  []int32
	gpos   []int32
	pos    [maxSelectEdges][]int32 // lane-indexed parent positions per edge
	posBuf [maxSelectEdges][]int32 // backing for edges chained off another edge
	vecs   [][]int64
}

// ensureGenLocked makes the engine's scratch hold at least nw workers' sets
// of at least nVecs tile vectors each, and the emission's evaluator. It
// returns the pool-miss count billed to Explain.FreshAllocs: 1 when anything
// was allocated, 0 on a pure reuse. Growing may move both slices, so plans
// index them per run and keep no header. Callers hold e.execMu.
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

// Reconfigure runs f with no compile or execution in flight on the engine —
// the one safe place to write the configuration fields compiles read
// (Workers, MorselRows, Params). Every compile holds the same
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
