// Package core is the reusable heart of SWOLE: given a query shape, it
// estimates statistics, consults the cost models of internal/cost, picks a
// technique — predicate pushdown (hybrid) or one of the paper's pullup
// techniques (value masking, key masking, positional bitmaps, eager
// aggregation) — and executes it over the column store with generic tiled
// kernels. Each execution returns an Explain describing the decision, the
// model costs, and the statistics they were based on.
//
// Every statement executes through one compiled-plan pipeline (compile.go)
// with one mode, compile-and-keep: Prepare compiles a Select spec onto the
// tile pipeline of select.go, validating and planning the query and binding
// the chosen kernel and plan-owned buffers exactly once, and the caller keeps
// the plan and re-runs it on the engine's persistent morsel-worker gang. The
// engine holds no plans: whoever prepared a plan owns it and decides when it
// is stale. PrepareForced is the same compile with the technique named by
// the caller. There is exactly one kernel per technique.
//
// This package is both what a downstream user calls for their own queries
// and what the paper's figures time: every series of Figures 6 and 8-12
// that the engine can run is its plan here, forced onto the series'
// technique or chosen by the cost model (internal/harness). Only what the
// engine cannot run — the compiled data-centric baselines, ROF, access
// merging, hash-join hybrids, and the TPC-H queries Synthesize declines —
// stays hand-written in internal/micro and internal/tpch.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// Technique identifies the physical technique chosen for an operator.
type Technique int

// Techniques SWOLE chooses among.
const (
	TechHybrid Technique = iota
	TechValueMasking
	TechKeyMasking
	TechAccessMerging
	TechPositionalBitmap
	TechEagerAggregation
	TechDataCentric
)

// String names the technique.
func (t Technique) String() string {
	return [...]string{
		"hybrid", "value-masking", "key-masking", "access-merging",
		"positional-bitmap", "eager-aggregation", "data-centric",
	}[t]
}

// Explain records a planning decision.
type Explain struct {
	Technique   Technique
	Selectivity float64 // estimated predicate selectivity
	Groups      int     // estimated group count (group-by shapes)
	HTBytes     int     // group table footprint: exact when DenseDomain > 0, else the hashed estimate
	CompCost    float64 // estimated per-tuple computation cost
	Costs       map[string]float64
	Merged      []string // attributes whose accesses were merged

	// Workers is the number of morsel workers the executor ran on; the
	// cost models were evaluated with Params.ForWorkers(Workers).
	Workers int
	// ScanTime is the wall time of the parallel scan phases (build and
	// probe passes included, for join shapes).
	ScanTime time.Duration
	// MergeTime is the wall time of the final single-threaded merge of
	// per-worker partial states.
	MergeTime time.Duration
	// PrepareTime is the wall time of the compile that made the plan and,
	// inside it, StatsTime the time spent on statistics lookups — cache hits,
	// sampling passes and column ranges. Both are reported by the plan's
	// first run and zero on every replay.
	PrepareTime, StatsTime time.Duration

	// DenseDomain is the key domain of the key-addressed group table the
	// plan aggregates into (slot = key - lo, emission in key order without a
	// sort); 0 means the hashed table ran. The compile picks the form from
	// what it knows about the key (see tableForm); Costs["dense"] and
	// Costs["hashed"] hold the priced alternatives.
	DenseDomain int

	// StatsCached reports that the selectivity/group statistics above came
	// from the engine's statistics cache instead of a fresh sampling pass.
	StatsCached bool
	// PlanCached reports that the whole planning decision was replayed
	// from a prepared query (sampling AND cost-model evaluation skipped).
	PlanCached bool
	// HTGrows counts hash-table growth events that fired during the scan
	// phases; 0 means the cardinality-hinted preallocation was sufficient.
	HTGrows int
	// FreshAllocs counts execution resources (worker scratch sets, hash
	// tables, bitmaps) allocated since the plan's previous run: the compile's
	// allocations on a plan's first run, 0 in steady state.
	FreshAllocs int

	// Variants aggregates the kernel-variant selection counters across the
	// run's workers: which lane widths the compare/widen prepasses ran at,
	// how tile selection split across the density classes, how many tiles
	// went through dict-coded or masked forms. All zero for the
	// tuple-at-a-time kernel.
	Variants vec.Counters
}

func (e Explain) String() string {
	part := ""
	if e.DenseDomain > 0 {
		part = fmt.Sprintf(" dense=%d", e.DenseDomain)
	}
	variants := ""
	if e.Variants.Total() > 0 {
		variants = fmt.Sprintf(" variants=[%s]", e.Variants.String())
	}
	return fmt.Sprintf("technique=%s sel=%.3f comp=%.1f ht=%dB workers=%d%s prepare=%s(stats=%s) scan=%s merge=%s stats_cached=%t plan_cached=%t ht_grows=%d fresh_allocs=%d costs=%v merged=%v%s",
		e.Technique, e.Selectivity, e.CompCost, e.HTBytes, e.Workers, part,
		e.PrepareTime, e.StatsTime, e.ScanTime, e.MergeTime, e.StatsCached, e.PlanCached, e.HTGrows, e.FreshAllocs,
		e.Costs, e.Merged, variants)
}

// Engine executes queries over a database with a given cost model.
//
// The engine compiles plans and lends them its worker gang; it does not
// keep them. A compiled plan owns every buffer its runs need, so re-running
// one samples nothing, plans nothing, and allocates nothing. Sampled
// statistics are cached per (table version, expression), so a fresh compile
// of a repeated shape skips the sampling pass. Engine methods are safe for
// concurrent use; executions serialize on the persistent worker gang's
// lock.
type Engine struct {
	DB     *storage.Database
	Params cost.Params

	// Workers is the number of morsel workers the executor dispatches
	// kernels on; 0 (the default) selects runtime.GOMAXPROCS(0). Results are
	// identical at every worker count: each worker aggregates into
	// private partial state and the merges are exact int64 sums.
	Workers int
	// MorselRows overrides the executor's morsel length in rows; 0 keeps
	// exec.DefaultMorselRows. Exposed for tests and experiments.
	MorselRows int

	// The statistics cache and the sample store its misses are evaluated
	// on (stats.go), guarded by mu.
	mu      sync.Mutex
	stats   statsCache
	samples sampler

	// The persistent worker gang every plan scans on, and one scratch per
	// gang worker shared by every plan (pools.go); execMu serializes
	// executions on them. emit is the evaluator emissions run HAVING and the
	// projection on.
	execMu     sync.Mutex
	gang       *exec.Workers
	gangMorsel int
	scratch    []*worker
	emit       *expr.Evaluator
}

// NewEngine returns an engine with default cost parameters and one morsel
// worker per usable CPU.
func NewEngine(db *storage.Database) *Engine {
	return &Engine{DB: db, Params: cost.Default()}
}

// workers resolves the configured worker count.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sentinel errors for query-shape failures. They are wrapped with %w so
// that callers — including ones draining errors surfaced from parallel
// workers — can test with errors.Is.
var (
	// ErrNoTable reports a query referencing an unknown table.
	ErrNoTable = errors.New("no such table")
	// ErrNoColumn reports a query referencing an unknown column.
	ErrNoColumn = errors.New("no such column")
)

func errNoTable(name string) error {
	return fmt.Errorf("core: table %q: %w", name, ErrNoTable)
}

func errNoColumn(table, column string) error {
	return fmt.Errorf("core: table %q column %q: %w", table, column, ErrNoColumn)
}

// tableForm is the rule that picks a group table's form, and its price. The
// keys are known to lie in [lo, hi] — a fact of the very column object the
// plan binds: a dictionary's size, a cached exact colRange, a packed-key
// domain; pass an empty range when nothing is known — and the key-addressed
// form runs when its record array, one record per key of the domain, is no
// larger than the hashed table sized for the estimated groups, or than L2
// (where it costs nothing to be sparse). A record is the lanes accumulators
// plus the count, or one packed word when one lane's rows × addBound stay
// under 2^31, so no sum, partial or whole, leaves int32. It returns the
// parameters the Section III models price the form's accesses with, the
// table's footprint, the domain and the packing: the key-addressed view of
// params and the record array's exact bytes, or — for an unknown or
// too-wide range, or one that holds ht.NullKey — params themselves, the
// hashed estimate, a zero domain and false.
func tableForm(params cost.Params, lo, hi int64, lanes, groups, rows int, bound uint64) (form cost.Params, bytes, domain int, packed bool) {
	hashed := groups * ht.HashedSlotBytes(lanes)
	span := uint64(hi) - uint64(lo) + 1 // 0 when the range is all of int64
	if hi < lo || lo == ht.NullKey || span == 0 || span > ht.MaxDenseDomain {
		return params, hashed, 0, false
	}
	packed = lanes == 1 && bound > 0 && uint64(rows) <= (1<<31-1)/bound
	b := ht.DenseBytes(lanes, span, packed)
	if b > uint64(max(ht.HashedBytes(lanes, groups), params.L2Bytes)) {
		return params, hashed, 0, false
	}
	return params.KeyAddressed(), int(b), int(span), packed
}

// addBound is the most one row adds to a sum of arg, for tableForm: 1 for
// the constant 1, the physical range of its width when arg is a bare column
// reading col (nil: the column arg is bound to), and 0 — no bound — for
// anything else.
func addBound(arg expr.Expr, col *storage.Column) uint64 {
	switch a := arg.(type) {
	case *expr.Const:
		if a.Val == 1 {
			return 1
		}
	case *expr.Col:
		if col == nil {
			col = a.Column()
		}
		if col != nil && col.Kind < storage.KindInt64 {
			return 1 << (8*col.Kind.Bytes() - 1) // |math.MinInt8|, |math.MinInt16|, |math.MinInt32|
		}
	}
	return 0
}
