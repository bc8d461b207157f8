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
// tile pipeline of select.go — or, for the classic group-by, onto its
// hand-specialized plan — validating and planning the query and binding the
// chosen kernel and plan-owned buffers exactly once, and the caller keeps the
// Plan and re-runs it on the engine's persistent morsel-worker gang. The
// engine holds no plans: whoever prepared a plan owns it and decides when it
// is stale. PrepareForced is the same compile with the technique named by
// the caller. There is exactly one kernel per (shape, technique).
//
// The hand-specialized kernels in internal/micro and internal/tpch are the
// measured reproductions of the paper's figures (the paper hand-coded each
// strategy); this package is what a downstream user calls for their own
// queries.
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

	// Partitioned reports that the radix-partitioned two-phase path ran
	// instead of direct per-worker hash tables: phase 1 scatters (key,
	// value) pairs into radix partition buffers, phase 2 aggregates each
	// partition in a cache-resident table.
	Partitioned bool
	// Partitions is the radix fan-out of the partitioned path (power of
	// two); 0 when Partitioned is false.
	Partitions int
	// PartitionTime is the wall time of phase 1, the partition-scatter
	// scan; included in ScanTime.
	PartitionTime time.Duration

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
	// went through dict-coded or masked forms, and how many elements the
	// software-prefetched probe loops covered. All zero for plans
	// compiled before the variant layer or for the tuple-at-a-time kernel.
	Variants vec.Counters
}

func (e Explain) String() string {
	part := ""
	if e.DenseDomain > 0 {
		part = fmt.Sprintf(" dense=%d", e.DenseDomain)
	}
	if e.Partitioned {
		part = fmt.Sprintf(" partitioned=%d(p1=%s)", e.Partitions, e.PartitionTime)
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

// PartitionMode selects how the engine decides between direct and radix-
// partitioned execution of the classic group-by, the only plan it affects.
type PartitionMode int

// Partition modes.
const (
	// PartitionAuto lets the cost model choose (the default): partition
	// when the estimated hash-table footprint overflows the partition
	// budget and the two-phase model is cheaper than the direct one.
	PartitionAuto PartitionMode = iota
	// PartitionOff forces the direct path.
	PartitionOff
	// PartitionOn forces the partitioned path regardless of cost (tests,
	// experiments, benchmarks).
	PartitionOn
)

// String names the mode.
func (m PartitionMode) String() string {
	switch m {
	case PartitionOff:
		return "off"
	case PartitionOn:
		return "on"
	}
	return "auto"
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
	// kernels on; 0 (the default) selects runtime.NumCPU(). Results are
	// identical at every worker count: each worker aggregates into
	// private partial state and the merges are exact int64 sums.
	Workers int
	// MorselRows overrides the executor's morsel length in rows; 0 keeps
	// exec.DefaultMorselRows. Exposed for tests and experiments.
	MorselRows int
	// Partition selects direct vs radix-partitioned classic group-by
	// execution; the zero value (PartitionAuto) defers to the cost model.
	Partition PartitionMode

	// The statistics cache and the sample store its misses are evaluated
	// on (stats.go), guarded by mu.
	mu      sync.Mutex
	stats   statsCache
	samples sampler

	// The persistent worker gang every plan scans on; execMu serializes
	// executions on it. The scatter arena rides under the same lock: every
	// partitioned plan's workers append into this one pool, it is reserved
	// at bind and reset at the top of each radix run, and it must never
	// grow while a scan is appending.
	execMu     sync.Mutex
	gang       *exec.Workers
	gangN      int
	gangMorsel int
	scatter    *ht.ScatterPool

	// The generic executor's tile scratch (pools.go), indexed by worker and
	// shared by every PreparedSelect under execMu, and the evaluator its
	// emissions run HAVING and the projection on.
	genStates []workerState
	genTiles  []tileScratch
	genEmit   *expr.Evaluator
}

// NewEngine returns an engine with default cost parameters and one morsel
// worker per CPU.
func NewEngine(db *storage.Database) *Engine {
	return &Engine{DB: db, Params: cost.Default()}
}

// workers resolves the configured worker count.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

// workerState is the private scratch one morsel worker evaluates tiles
// with: an expression evaluator plus the tile buffers (exec.Scratch) the
// kernels in this package share. Workers never exchange scratch, so the
// tiled kernels run exactly as in the sequential engine. A plan allocates
// its states when it is compiled and keeps them for every run.
type workerState struct {
	ev *expr.Evaluator
	// ctr is this worker's kernel-variant counters. The evaluator shares
	// the same struct (via SetCounters), so the compare/widen prepass
	// counts and the counts the kernels bump directly land in one place;
	// sumVariants folds them into Explain after each run. Heap-allocated so
	// the evaluator's pointer survives a reallocation of the states slice.
	ctr *vec.Counters
	*exec.Scratch
}

// newWorkerState allocates one worker's scratch set.
func newWorkerState() workerState {
	ctr := &vec.Counters{}
	ev := expr.NewEvaluator()
	ev.SetCounters(ctr)
	return workerState{ev: ev, ctr: ctr, Scratch: exec.NewScratch()}
}

// fillCmp evaluates the (possibly nil) filter for one tile into s.Cmp.
func (s *workerState) fillCmp(filter expr.Expr, base, length int) {
	if filter != nil {
		s.ev.EvalBool(filter, expr.Rows(base, length), s.Cmp)
	} else {
		vec.Fill(s.Cmp[:length], 1)
	}
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
// count(*) (the hand plans' sum(1)), the physical range of its width when
// arg is a bare column reading col (nil: the column arg is bound to), and 0
// — no bound — for anything else.
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

// forcedPartitions is the minimum fan-out under PartitionOn, so forced
// runs exercise a real multi-partition shape even on tables the budget
// would leave unpartitioned.
const forcedPartitions = 16

// choosePartition resolves a partition mode against the cost model for a
// group-by of rows tuples into a table of htBytes. It returns whether to
// run the radix-partitioned path, the fan-out, and the modeled partitioned
// cost (meaningful whenever parts > 1, so callers can record it in
// Explain.Costs even when the direct path wins).
func choosePartition(mode PartitionMode, params cost.Params, rows int, comp float64, htBytes int, directCost float64) (bool, int, float64) {
	switch mode {
	case PartitionOff:
		return false, 0, 0
	case PartitionOn:
		parts := params.PartitionsFor(htBytes)
		if parts < forcedPartitions {
			parts = forcedPartitions
		}
		return true, parts, params.PartitionedGroup(rows, comp, htBytes, parts)
	}
	use, parts, c := params.ChoosePartitionedGroup(rows, comp, htBytes, directCost)
	return use, parts, c
}
