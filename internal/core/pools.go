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
// the persistent worker gang and one worker scratch per gang worker, both
// guarded by e.execMu.

// worker is one gang worker's private scratch: its expression evaluator and
// kernel-variant counters, and its tile buffers — the root mask, the
// residual's mask, the selection vector, key and value vectors, group slots,
// gather positions, per-edge parent positions, and one int64 vector per
// joined-schema column a statement reads. Workers never exchange scratch, and
// nothing in it outlives a tile, so one set per worker serves every plan on
// the engine and a never-seen statement's compile allocates none.
type worker struct {
	ev *expr.Evaluator
	// ctr is this worker's per-tile counters: the evaluator's compare lanes
	// and dict-key tiles, the tile stage's widens and selection densities
	// (the fold loop is fixed per plan: Explain.Kernel). sumVariants folds
	// them into Explain after each run.
	ctr    vec.Counters
	cmp    []byte  // 0/1 predicate results, one lane per row
	tcmp   []byte  // the residual's mask
	idx    []int32 // tile-local selection vector
	keys   []int64 // materialized group keys
	vals   []int64 // materialized aggregate operands
	slots  []int32
	gpos   []int32
	pos    [maxSelectEdges][]int32 // lane-indexed parent positions per edge
	posBuf [maxSelectEdges][]int32 // backing for edges chained off another edge
	vecs   [][]int64
}

// newWorker allocates one worker's scratch, without tile vectors.
func newWorker() *worker {
	tile := func() []int32 { return make([]int32, vec.TileSize) }
	s := &worker{
		ev:    expr.NewEvaluator(),
		cmp:   make([]byte, vec.TileSize),
		tcmp:  make([]byte, vec.TileSize),
		idx:   tile(),
		keys:  make([]int64, vec.TileSize),
		vals:  make([]int64, vec.TileSize),
		slots: tile(),
		gpos:  tile(),
	}
	for i := range s.posBuf {
		s.posBuf[i] = tile()
	}
	s.ev.SetCounters(&s.ctr)
	return s
}

// ensureScratchLocked makes the engine hold at least nw workers' scratch of
// at least nVecs tile vectors each, and the emission's evaluator. It returns
// the pool-miss count billed to Explain.FreshAllocs: 1 when anything was
// allocated, 0 on a pure reuse. Callers hold e.execMu.
func (e *Engine) ensureScratchLocked(nw, nVecs int) int {
	fresh := 0
	if e.emit == nil {
		// Uncounted: HAVING and a computed projection are not tile kernels.
		e.emit, fresh = expr.NewEvaluator(), 1
	}
	for len(e.scratch) < nw {
		e.scratch, fresh = append(e.scratch, newWorker()), 1
	}
	for _, s := range e.scratch {
		for len(s.vecs) < nVecs {
			s.vecs, fresh = append(s.vecs, make([]int64, vec.TileSize)), 1
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

// gangLocked returns the persistent worker gang with room for at least
// workers, (re)building it when it is smaller or the engine's morsel
// configuration changed. The gang only grows: a scan on fewer workers wakes
// fewer (exec.Workers.RunCtx). Callers must hold e.execMu for the whole
// scan, not just this call: the gang is single-flight by design (one parked
// goroutine set), which serializes scans and lets them share one set of warm
// resources instead of multiplying per-query state.
func (e *Engine) gangLocked(workers int) *exec.Workers {
	if e.gang == nil || e.gang.NumWorkers() < workers || e.gangMorsel != e.MorselRows {
		if e.gang != nil {
			workers = max(workers, e.gang.NumWorkers())
			e.gang.Close()
		}
		e.gang = exec.NewWorkers(workers, e.MorselRows)
		e.gangMorsel = e.MorselRows
	}
	return e.gang
}
