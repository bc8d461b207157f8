package swole

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/vec"
	"github.com/reprolab/swole/internal/volcano"
)

// KernelVariants aggregates the per-tile kernel-variant counters of one
// execution; the fold loop is Explain.Kernel. All zero for
// interpreter-fallback statements. See Explain.Variants.
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
	// compile time from the key's known domain; Costs["dense"] and
	// Costs["hashed"] hold the priced alternatives.
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

	// Partitioned is always false: the engine has no radix-partitioned
	// path. The field stays because benchmark/ reads it.
	Partitioned bool

	// Kernel names the loop every tile folds with, fixed when the plan
	// compiled, such as "sum1(i32;i8)/packed/value", or
	// "sum(i8)/scalar/cmp(i8)/avx2" for a loop that computes its predicate
	// inline; empty on a fallback.
	Kernel string

	// Variants aggregates the per-tile kernel-variant counters across the
	// run's workers: adaptive selection-build density classes, native-width
	// compare and widen lanes, and dict-coded key tiles. All zero for
	// interpreter-fallback statements.
	Variants KernelVariants
}

func fromCore(ex core.Explain) Explain {
	return Explain{
		Technique:   ex.Technique.String(),
		Selectivity: ex.Selectivity,
		Groups:      ex.Groups,
		HTBytes:     ex.HTBytes,
		DenseDomain: ex.DenseDomain,
		Costs:       ex.Costs,
		Merged:      ex.Merged,
		PlanCached:  ex.PlanCached,
		StatsCached: ex.StatsCached,
		HTGrows:     ex.HTGrows,
		FreshAllocs: ex.FreshAllocs,
		PrepareTime: ex.PrepareTime,
		StatsTime:   ex.StatsTime,
		Kernel:      ex.Kernel,
		Variants:    ex.Variants,
	}
}

// QuerySwole executes a SQL statement with the access-aware SWOLE
// executor. Any single-block aggregate SELECT the frontend accepts —
// filtered scans, up to three foreign-key join edges (star or snowflake),
// OR/NOT predicate trees, multiple aggregates (sum, count, avg, min,
// max), GROUP BY, HAVING, ORDER BY and LIMIT — is synthesized into one
// compiled plan on the engine's tile pipeline. Rows tied on every ORDER BY
// key come in the order of their columns, left to right, ascending, on
// either engine.
// Statements outside that grammar (no aggregate, unsupported joins) fall
// back to the interpreted engine, reported in the Explain as
// "interpreter-fallback".
//
// Synthesized statements are cached as prepared plans, keyed by their
// text: re-executing one with the same text skips parsing, sampling, and
// the cost-model decision, and runs on recycled execution state,
// allocation-free in the steady state. The returned *Result of a
// synthesized statement is overwritten by the statement's next execution,
// including the first one after an append; copy what must outlive it.
// Replacing a table with CreateTable evicts every cached plan and statistic
// that read it.
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
//     what other goroutines execute afterwards. QuerySwole's result, by
//     contrast, aliases the cached plan's buffer, which is overwritten by
//     the statement's next execution, including the first one after an
//     append.
//
// Statements outside the SWOLE vocabulary fall back to the interpreted
// engine, whose scans poll ctx every few thousand rows.
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
	if spec, ok := core.Synthesize(d.db, p); ok {
		// A cold entry is compiled under its lock like a stale one: published
		// without a plan, it compiles in answer, and callers that found it
		// meanwhile wait there and replay that one plan.
		if ex, ok, err := d.publish(q, spec).answer(ctx, d, q, fn); ok {
			return ex, err
		}
	}
	vres, err := volcano.Run(ctx, p, d.db)
	if err != nil {
		return Explain{}, err
	}
	fn(resultOf(vres))
	return Explain{Technique: "interpreter-fallback", Shape: "interpreter-fallback"}, nil
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
// beyond a single sum/count), HAVING, ORDER BY and LIMIT. The signature is Explain.Shape
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
	if len(spec.Order) > 0 {
		b.WriteString("+sort")
	}
	if spec.Limit > 0 {
		b.WriteString("+limit")
	}
	return b.String()
}
