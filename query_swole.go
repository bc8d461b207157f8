package swole

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/vec"
	"github.com/reprolab/swole/internal/volcano"
)

// KernelVariants aggregates the kernel-variant selection counters for one
// execution: which specialized tile kernels ran and how often. All zero
// for interpreter-fallback statements and for plans forced onto the
// tuple-at-a-time kernel. See Explain.Variants.
type KernelVariants = vec.Counters

// Explain describes the technique SWOLE chose for a query and the cost
// model evidence behind the choice.
type Explain struct {
	// Technique is one of: hybrid, value-masking, key-masking,
	// access-merging, positional-bitmap, eager-aggregation, or
	// "interpreter-fallback" when the query shape is outside the SWOLE
	// executor's vocabulary.
	Technique string
	// Shape is the synthesized plan signature — the components the plan
	// synthesizer assembled for this statement, rendered as a compact
	// spine such as "scan+filter(or:2)+join:2+groupagg+having" — or
	// "interpreter-fallback" for statements the synthesizer declined.
	// Signatures are unbounded; serving metrics aggregate them under the
	// bounded buckets of ShapeBucket.
	Shape string
	// Selectivity is the sampled predicate selectivity.
	Selectivity float64
	// Groups is the estimated group count for group-by shapes.
	Groups int
	// HTBytes is the group table (or bitmap) footprint: exact for a
	// key-addressed table (DenseDomain > 0), the estimate otherwise.
	HTBytes int
	// DenseDomain is the key domain of the key-addressed group table the
	// statement aggregated into — slot = key - lo, emission in key order
	// without a sort — or 0 when the hashed table ran. The form is chosen at
	// compile time from the key's known domain; Costs["dense"],
	// Costs["hashed"] and Costs["partitioned"] hold the priced alternatives.
	DenseDomain int
	// Costs holds the per-alternative cost model evaluations.
	Costs map[string]float64
	// Merged lists attributes whose accesses were merged.
	Merged []string

	// PlanCached reports the statement was served from the plan cache:
	// parsing, statistics, and the cost-model decision were all replayed
	// from its first execution.
	PlanCached bool
	// StatsCached reports the planning statistics came from the engine's
	// statistics cache rather than a fresh sampling pass.
	StatsCached bool
	// HTGrows counts hash-table growth events during execution; 0 means
	// the cardinality-hinted preallocation held.
	HTGrows int
	// FreshAllocs counts execution resources (worker scratch, hash
	// tables, bitmaps) newly allocated rather than recycled; 0 in steady
	// state.
	FreshAllocs int
	// PrepareTime is the wall time the engine took to compile the
	// statement's plan and, inside it, StatsTime the time spent on
	// statistics: cache lookups, sampling passes, column ranges. Both are
	// zero when the plan was replayed from the cache (PlanCached).
	PrepareTime, StatsTime time.Duration

	// Partitioned reports the radix-partitioned two-phase path executed
	// the aggregation: phase 1 scattered (key, value) pairs into radix
	// partition buffers, phase 2 aggregated each partition in a
	// cache-resident table (see SetPartitionMode).
	Partitioned bool
	// Partitions is the radix fan-out (power of two); 0 when the direct
	// path ran.
	Partitions int
	// PartitionTime is the wall time of the phase-1 partition scatter.
	PartitionTime time.Duration

	// Variants aggregates the kernel-variant selection counters across the
	// run's workers: adaptive selection-build density classes, native-width
	// compare and widen lanes, fused dict/key masking, and software-prefetch
	// touch counts. All zero for interpreter-fallback statements and for
	// plans forced onto the tuple-at-a-time kernel.
	Variants KernelVariants

	// The Shard* fields describe a coordinator scatter-gather over shard
	// processes (cmd/swoled -shards) and are set by the coordinator only.
	// An in-process execution leaves them zero, whatever the table's
	// ShardTable layout: that layout is write-side, and the query is one
	// plan on one engine.
	//
	// ShardCount is the number of shard processes the query was sent to.
	ShardCount int
	// ShardTimes holds each shard process's response time, indexed by shard.
	ShardTimes []time.Duration
	// ShardMergeTime is the wall time of folding the shards' answers into
	// the final one (group rows combine by key, scalars by summation).
	ShardMergeTime time.Duration
	// ShardErrors attributes per-shard failures: entry i names what shard i
	// returned when the query failed partially. Empty on success.
	ShardErrors []string
}

func fromCore(ex core.Explain) Explain {
	return Explain{
		Technique:     ex.Technique.String(),
		Selectivity:   ex.Selectivity,
		Groups:        ex.Groups,
		HTBytes:       ex.HTBytes,
		DenseDomain:   ex.DenseDomain,
		Costs:         ex.Costs,
		Merged:        ex.Merged,
		PlanCached:    ex.PlanCached,
		StatsCached:   ex.StatsCached,
		HTGrows:       ex.HTGrows,
		FreshAllocs:   ex.FreshAllocs,
		PrepareTime:   ex.PrepareTime,
		StatsTime:     ex.StatsTime,
		Partitioned:   ex.Partitioned,
		Partitions:    ex.Partitions,
		PartitionTime: ex.PartitionTime,
		Variants:      ex.Variants,
	}
}

// QuerySwole executes a SQL statement with the access-aware SWOLE
// executor. Any single-block aggregate SELECT the frontend accepts —
// filtered scans, up to three foreign-key join edges (star or snowflake),
// OR/NOT predicate trees, multiple aggregates (sum, count, avg, min,
// max), GROUP BY, and HAVING — is synthesized into one compiled plan on the
// engine's tile pipeline; the classic group-by aggregation is the one
// special case that still compiles onto hand-specialized kernels.
// Statements outside that grammar (no aggregate, ORDER BY, unsupported
// joins) fall back to the interpreted engine, reported in the Explain as
// "interpreter-fallback".
//
// Synthesized statements are cached as prepared plans: re-executing one —
// byte-identical or merely whitespace-reformatted — skips parsing,
// sampling, and the cost-model decision, and runs on recycled execution
// state, allocation-free in the steady state. The returned *Result of a
// cached statement is overwritten by that statement's next execution;
// copy what must outlive it. Replacing a table with CreateTable evicts
// every cached plan and statistic that read it.
func (d *DB) QuerySwole(q string) (res *Result, ex Explain, err error) {
	ex, err = d.query(context.Background(), q, func(r *Result) { res = r })
	return res, ex, err
}

// QueryContext is QuerySwole under a context deadline, built for
// concurrent callers:
//
//   - Cancellation is cooperative at morsel granularity: when ctx is
//     canceled or its deadline passes, every worker stops within one
//     morsel, the engine's pooled scratch survives intact for the next
//     query, and the call returns ctx's error (context.DeadlineExceeded
//     or context.Canceled).
//   - The returned *Result is a private copy, safe to read regardless of
//     what other goroutines execute afterwards (QuerySwole's result, by
//     contrast, aliases cache-owned buffers).
//
// Statements outside the SWOLE vocabulary fall back to the interpreted
// engine, which only honors the deadline between operators, not inside a
// scan.
func (d *DB) QueryContext(ctx context.Context, q string) (res *Result, ex Explain, err error) {
	ex, err = d.query(ctx, q, func(r *Result) {
		own := *r
		own.flat = append([]int64(nil), r.flat...)
		res = &own
	})
	return res, ex, err
}

// QueryRows is QueryContext for a caller that consumes the answer at once
// (the swoled server encodes it) and so needs no copy: fn receives the column
// names and the rows as one flat row-major array, row i at
// flat[i*width:(i+1)*width]. Both belong to the statement's cached plan: read
// them only until fn returns, never write them. Other executions of the same
// statement wait while fn runs; a failing statement does not call it.
func (d *DB) QueryRows(ctx context.Context, q string, fn func(cols []string, flat []int64, width int)) (Explain, error) {
	return d.query(ctx, q, func(r *Result) { fn(r.cols, r.flat, len(r.cols)) })
}

// query is the shared body of QuerySwole, QueryContext and QueryRows: fn
// sees the answer once, before query returns.
func (d *DB) query(ctx context.Context, q string, fn func(*Result)) (Explain, error) {
	if err := ctx.Err(); err != nil {
		return Explain{}, err
	}
	if ex, found, err := d.cachedRun(ctx, q, fn); found {
		return ex, err
	}
	p, err := sql.Compile(q, d.db)
	if err != nil {
		return Explain{}, err
	}
	if spec, ok := d.synthesize(p); ok {
		c, err := d.prepareShape(spec)
		if err != nil {
			return Explain{}, err
		}
		d.storePlan(q, c)
		ex, err := c.answer(ctx, fn)
		// First execution: the plan was prepared, not replayed.
		ex.PlanCached = false
		return ex, err
	}
	vres, err := volcano.Run(p, d.db)
	if err != nil {
		return Explain{}, err
	}
	// The interpreter does not poll the context mid-scan; honor an expired
	// deadline on completion so callers see one consistent contract.
	if err := ctx.Err(); err != nil {
		return Explain{}, err
	}
	fn(resultOf(vres))
	return Explain{Technique: "interpreter-fallback", Shape: "interpreter-fallback"}, nil
}

// The plan synthesizer. A compiled statement is not pattern-matched
// against a registry of fixed shapes: synthesize destructures the logical
// plan's aggregate spine (Map over Aggregate over a Scan or a left-deep
// FK join chain) into a compositional core.Select spec — root scan, join
// edges, residual, group keys, aggregates, HAVING, projection — the one
// statement shape this package knows. core.Engine.Prepare decides what
// the spec compiles onto: the tile pipeline — per-edge positional bitmaps
// or eager aggregation, packed group keys, a cost-chosen masking technique,
// the worker gang wherever the workers' partials merge exactly — covers the
// whole grammar, and a spec that collapses to the classic group-by lands on
// its hand-specialized plan (multi-worker morsel parallelism, radix
// partitioning). Both replay warm without allocating.

// SupportedShapes lists the bounded shape buckets synthesized plans
// aggregate under (see ShapeBucket): every signature the synthesizer can
// emit folds into one of these; statements outside the synthesizer's
// grammar run on the interpreter ("interpreter-fallback"). The list is
// derived from the component vocabulary, not a registry — there is no
// fixed set of accepted statements anymore. Exposed for tests and
// introspection.
func SupportedShapes() []string {
	// One representative signature per (join, aggregate) component
	// combination; the buckets are their ShapeBucket images, deduplicated.
	sigs := []string{
		"scan+filter+scalaragg",
		"scan+filter+groupagg",
		"scan+filter+join:1+scalaragg",
		"scan+filter+join:1+groupagg",
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(sigs))
	for _, sig := range sigs {
		if b := ShapeBucket(sig); !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// ShapeBucket folds a synthesized plan signature (Explain.Shape) into one
// of the four bounded label values serving metrics aggregate under:
// "scalar-agg", "group-agg", "semijoin-agg", "groupjoin-agg" — or
// "interpreter-fallback", which buckets as itself. Signatures grow with
// the statement (join counts, OR widths, aggregate lists), so exporting
// them raw would make metric label cardinality unbounded; the bucket is
// the join/grouping class, which is what capacity dashboards key on.
func ShapeBucket(sig string) string {
	hasJoin := strings.Contains(sig, "join")
	hasGroup := strings.Contains(sig, "groupagg")
	if !hasGroup && !strings.Contains(sig, "scalaragg") {
		// Not a synthesized signature ("interpreter-fallback", test stubs,
		// the empty shape of a failed execution): already bounded, pass
		// through unchanged.
		return sig
	}
	switch {
	case hasJoin && hasGroup:
		return "groupjoin-agg"
	case hasJoin:
		return "semijoin-agg"
	case hasGroup:
		return "group-agg"
	default:
		return "scalar-agg"
	}
}

// planSignature renders the spec's component spine: scan, filter (with
// its OR width when the root predicate is a disjunction), join edge
// count, the aggregate class (with count and non-additive functions when
// beyond a single sum/count), and HAVING. The signature is Explain.Shape
// for every synthesized statement — the classic shapes included — and
// buckets through ShapeBucket for metrics.
func planSignature(spec core.Select) string {
	var b strings.Builder
	b.WriteString("scan")
	if spec.Filter != nil {
		b.WriteString("+filter")
		if n := len(expr.OrTerms(spec.Filter)); n > 1 {
			fmt.Fprintf(&b, "(or:%d)", n)
		}
	}
	if len(spec.Edges) > 0 {
		fmt.Fprintf(&b, "+join:%d", len(spec.Edges))
	}
	if len(spec.GroupBy) > 0 {
		b.WriteString("+groupagg")
	} else {
		b.WriteString("+scalaragg")
	}
	if len(spec.Aggs) > 1 {
		fmt.Fprintf(&b, ":%d", len(spec.Aggs))
	}
	var funcs []string
	seen := map[core.AggKind]bool{}
	for _, a := range spec.Aggs {
		switch a.Kind {
		case core.AggAvg, core.AggMin, core.AggMax:
			if !seen[a.Kind] {
				seen[a.Kind] = true
				funcs = append(funcs, a.Kind.String())
			}
		}
	}
	if len(funcs) > 0 {
		b.WriteString("(" + strings.Join(funcs, ",") + ")")
	}
	if spec.Having != nil {
		b.WriteString("+having")
	}
	return b.String()
}

// synthesize destructures a compiled logical plan into a core.Select
// spec. It accepts any Map-over-Aggregate spine whose input is a Scan or a
// left-deep chain of FK joins with Scan build sides — exactly what the SQL
// frontend emits for a single-block aggregate SELECT without ORDER BY. The
// root filter is normalized to NNF first, so the disjunction planner sees
// the top-level OR terms.
func (d *DB) synthesize(p plan.Node) (core.Select, bool) {
	m, ok := p.(*plan.Map)
	if !ok {
		return core.Select{}, false
	}
	agg, ok := m.Input.(*plan.Aggregate)
	if !ok || len(agg.Aggs) == 0 {
		return core.Select{}, false
	}

	// Destructure the join chain bottom-up: the probe spine ends at the
	// root scan, each join's build side is a parent scan.
	var joins []*plan.Join
	node := agg.Input
	for {
		j, jok := node.(*plan.Join)
		if !jok {
			break
		}
		if j.Semi {
			return core.Select{}, false
		}
		joins = append(joins, j)
		node = j.Probe
	}
	root, ok := node.(*plan.Scan)
	if !ok {
		return core.Select{}, false
	}
	for i, j := 0, len(joins)-1; i < j; i, j = i+1, j-1 {
		joins[i], joins[j] = joins[j], joins[i]
	}
	for _, j := range joins {
		if _, bok := j.Build.(*plan.Scan); !bok {
			return core.Select{}, false
		}
	}

	// NNF the root predicate (structure-sharing; the compiled tree is
	// ours) so a disjunction's OR sits at the top, where the plan signature
	// counts its terms and the evaluator skips them on a saturated tile.
	spec := core.Select{
		Root:    root.Table,
		Filter:  expr.NNF(root.Filter),
		GroupBy: agg.GroupBy,
		Having:  agg.Having,
	}
	var residual []expr.Expr
	for _, j := range joins {
		b := j.Build.(*plan.Scan)
		// Src: which side owns the FK column — the root scan or an earlier
		// edge's parent (snowflake chain). Column names are query-unique.
		src := -1
		if d.db.MustTable(root.Table).Column(j.ProbeKey) == nil {
			src = -2
			for ei := range spec.Edges {
				if d.db.MustTable(spec.Edges[ei].Parent).Column(j.ProbeKey) != nil {
					src = ei
					break
				}
			}
			if src == -2 {
				return core.Select{}, false
			}
		}
		spec.Edges = append(spec.Edges, core.SelectEdge{
			Src: src, FK: j.ProbeKey, Parent: b.Table, PK: j.BuildKey, Filter: b.Filter,
		})
		if j.Residual != nil {
			// FK inner joins never drop or duplicate probe rows, so a
			// mid-chain residual evaluates identically over the full row.
			residual = append(residual, j.Residual)
		}
	}
	switch len(residual) {
	case 0:
	case 1:
		spec.Residual = residual[0]
	default:
		spec.Residual = &expr.Logic{Op: expr.And, Args: residual}
	}
	aggKinds := map[plan.AggFunc]core.AggKind{
		plan.Sum: core.AggSum, plan.Count: core.AggCount, plan.Avg: core.AggAvg,
		plan.Min: core.AggMin, plan.Max: core.AggMax,
	}
	for _, a := range agg.Aggs {
		spec.Aggs = append(spec.Aggs, core.SelectAgg{Kind: aggKinds[a.Func], Arg: a.Arg, As: a.As})
	}
	for _, e := range m.Exprs {
		spec.Project = append(spec.Project, core.SelectProj{Expr: e.Expr, As: e.As})
	}

	return spec, true
}

// prepareShape compiles the synthesized statement on the engine and wraps
// it as a cache entry with its table-version dependencies and reusable
// result. The catalog tables always hold every row, so the one plan is the
// whole statement under any shard layout.
func (d *DB) prepareShape(spec core.Select) (*cachedPlan, error) {
	d.mu.RLock()
	c := &cachedPlan{shape: planSignature(spec), gen: d.configGen}
	d.mu.RUnlock()
	// A compile looks its tables and foreign-key indexes up one at a time,
	// so one that overlaps a write could pair the old table with the new
	// index. Such a compile always straddles a version bump: recompile until
	// one ran entirely inside a single version of every table it reads.
	for {
		c.deps = c.deps[:0]
		for _, tn := range spec.Tables() {
			c.deps = append(c.deps, tableDep{name: tn, ver: d.db.TableVersion(tn)})
		}
		var err error
		if c.plan, err = d.engine.Prepare(spec); err != nil {
			return nil, err
		}
		if c.fresh(d) {
			break
		}
		spec = spec.Clone()
	}
	c.setFields(c.plan.Fields())
	return c, nil
}
