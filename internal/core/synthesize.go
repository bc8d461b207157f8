package core

import (
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// The plan synthesizer. A compiled statement is not pattern-matched
// against a registry of fixed shapes: Synthesize destructures the logical
// plan's aggregate spine (Map over Aggregate over a Scan or a left-deep
// FK join chain) into a compositional Select spec — root scan, join edges,
// residual, group keys, aggregates, HAVING, projection — the one statement
// shape the engine knows. Engine.Prepare compiles it onto the tile pipeline —
// per-edge positional bitmaps or eager aggregation, packed group keys, a
// cost-chosen masking technique, the worker gang wherever the workers'
// partials merge exactly — which covers the whole grammar and replays warm
// without allocating.

// Synthesize destructures a compiled logical plan over db into a Select
// spec. It accepts any Map-over-Aggregate spine whose input is a Scan or a
// left-deep chain of FK joins with Scan build sides — exactly what the SQL
// frontend emits for a single-block aggregate SELECT without ORDER BY. The
// root filter is normalized to NNF first, so the disjunction planner sees
// the top-level OR terms.
func Synthesize(db *storage.Database, p plan.Node) (Select, bool) {
	m, ok := p.(*plan.Map)
	if !ok {
		return Select{}, false
	}
	agg, ok := m.Input.(*plan.Aggregate)
	if !ok || len(agg.Aggs) == 0 {
		return Select{}, false
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
			return Select{}, false
		}
		joins = append(joins, j)
		node = j.Probe
	}
	root, ok := node.(*plan.Scan)
	if !ok {
		return Select{}, false
	}
	for i, j := 0, len(joins)-1; i < j; i, j = i+1, j-1 {
		joins[i], joins[j] = joins[j], joins[i]
	}
	for _, j := range joins {
		if _, bok := j.Build.(*plan.Scan); !bok {
			return Select{}, false
		}
	}

	// NNF the root predicate (structure-sharing; the compiled tree is
	// ours) so a disjunction's OR sits at the top, where the plan signature
	// counts its terms and the evaluator skips them on a saturated tile.
	spec := Select{
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
		if db.MustTable(root.Table).Column(j.ProbeKey) == nil {
			src = -2
			for ei := range spec.Edges {
				if db.MustTable(spec.Edges[ei].Parent).Column(j.ProbeKey) != nil {
					src = ei
					break
				}
			}
			if src == -2 {
				return Select{}, false
			}
		}
		spec.Edges = append(spec.Edges, SelectEdge{
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
	aggKinds := map[plan.AggFunc]AggKind{
		plan.Sum: AggSum, plan.Count: AggCount, plan.Avg: AggAvg,
		plan.Min: AggMin, plan.Max: AggMax,
	}
	for _, a := range agg.Aggs {
		spec.Aggs = append(spec.Aggs, SelectAgg{Kind: aggKinds[a.Func], Arg: a.Arg, As: a.As})
	}
	for _, e := range m.Exprs {
		spec.Project = append(spec.Project, SelectProj{Expr: e.Expr, As: e.As})
	}

	return spec, true
}
