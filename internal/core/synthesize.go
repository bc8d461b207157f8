package core

import (
	"slices"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// Synthesize is the plan synthesizer. A compiled statement is not
// pattern-matched against a registry of fixed shapes: Synthesize
// destructures the logical plan over db into a compositional Select spec —
// root scan, join edges, residual, group keys, aggregates, HAVING,
// projection, ORDER BY and LIMIT — the one statement shape the engine knows,
// which Engine.Prepare compiles onto the tile pipeline. It accepts, under an
// optional Sort (keys naming output columns, and a Limit):
//
//   - a Map over an Aggregate, or a bare Aggregate (its keys and aggregates
//     projected under their own names), whose input is a Scan or a left-deep
//     chain of FK joins with Scan build sides — what the SQL frontend emits
//     for any single-block aggregate SELECT;
//   - a Map over an inner GroupJoin whose probe is a Scan and whose build is
//     a Scan or such a chain of parents: the probe is the root, the build
//     side's scans its edges, and the groups are the build key's, plus the
//     build columns the Map reads, which that key determines.
//
// The root filter is normalized to NNF, so the disjunction planner sees the
// top-level OR terms.
func Synthesize(db *storage.Database, p plan.Node) (Select, bool) {
	var spec Select
	if s, ok := p.(*plan.Sort); ok {
		spec.Order, spec.Limit, p = s.Keys, s.Limit, s.Input
	}
	m, mapped := p.(*plan.Map)
	if mapped {
		p = m.Input
	}
	var aggs []plan.AggSpec
	var residual []expr.Expr
	switch top := p.(type) {
	case *plan.Aggregate:
		root, joins, ok := chain(top.Input)
		if !ok {
			return Select{}, false
		}
		spec.Root, spec.Filter = root.Table, root.Filter
		if residual, ok = spec.join(db, joins); !ok {
			return Select{}, false
		}
		spec.GroupBy, spec.Having, aggs = top.GroupBy, top.Having, top.Aggs
		if !mapped {
			m = &plan.Map{}
			for _, k := range top.GroupBy {
				m.Exprs = append(m.Exprs, plan.NamedExpr{Expr: expr.NewCol(k), As: k})
			}
			for _, a := range top.Aggs {
				m.Exprs = append(m.Exprs, plan.NamedExpr{Expr: expr.NewCol(a.As), As: a.As})
			}
		}
	case *plan.GroupJoin:
		root, rok := top.Probe.(*plan.Scan)
		base, joins, ok := chain(top.Build)
		if !mapped || top.Outer || !rok || !ok || db.FK(root.Table, top.ProbeKey, base.Table, top.BuildKey) == nil {
			return Select{}, false
		}
		spec.Root, spec.Filter = root.Table, root.Filter
		spec.Edges = []SelectEdge{{Src: -1, FK: top.ProbeKey, Parent: base.Table, PK: top.BuildKey, Filter: base.Filter}}
		if residual, ok = spec.join(db, joins); !ok {
			return Select{}, false
		}
		aggs, spec.GroupBy = top.Aggs, []string{top.BuildKey}
		for _, e := range m.Exprs {
			for _, c := range expr.Cols(e.Expr) {
				if slices.Contains(spec.GroupBy, c) || slices.ContainsFunc(aggs, func(a plan.AggSpec) bool { return a.As == c }) {
					continue
				}
				if !slices.ContainsFunc(spec.Edges, func(ed SelectEdge) bool { return db.MustTable(ed.Parent).Column(c) != nil }) {
					return Select{}, false
				}
				spec.GroupBy = append(spec.GroupBy, c)
			}
		}
	default:
		return Select{}, false
	}
	if len(aggs) == 0 {
		return Select{}, false
	}

	// NNF the root predicate (structure-sharing; the compiled tree is
	// ours) so a disjunction's OR sits at the top, where the plan signature
	// counts its terms and the evaluator skips them on a saturated tile.
	spec.Filter = expr.NNF(spec.Filter)
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
	for _, a := range aggs {
		spec.Aggs = append(spec.Aggs, SelectAgg{Kind: aggKinds[a.Func], Arg: a.Arg, As: a.As})
	}
	for _, e := range m.Exprs {
		spec.Project = append(spec.Project, SelectProj{Expr: e.Expr, As: e.As})
	}
	return spec, true
}

// chain destructures a left-deep chain of FK joins, bottom-up: the probe
// spine ends at the returned scan, and each join's build side is a parent
// scan.
func chain(node plan.Node) (*plan.Scan, []*plan.Join, bool) {
	var joins []*plan.Join
	for {
		j, ok := node.(*plan.Join)
		if !ok {
			break
		}
		if _, bok := j.Build.(*plan.Scan); j.Semi || !bok {
			return nil, nil, false
		}
		joins = append(joins, j)
		node = j.Probe
	}
	slices.Reverse(joins)
	root, ok := node.(*plan.Scan)
	return root, joins, ok
}

// join appends one edge per join of a chain and returns their residuals.
// Each edge's FK column belongs to the root scan or to an earlier edge's
// parent (a snowflake chain); column names are query-unique.
func (spec *Select) join(db *storage.Database, joins []*plan.Join) ([]expr.Expr, bool) {
	var residual []expr.Expr
	for _, j := range joins {
		src := -1
		if db.MustTable(spec.Root).Column(j.ProbeKey) == nil {
			src = slices.IndexFunc(spec.Edges, func(ed SelectEdge) bool {
				return db.MustTable(ed.Parent).Column(j.ProbeKey) != nil
			})
			if src < 0 {
				return nil, false
			}
		}
		b := j.Build.(*plan.Scan)
		spec.Edges = append(spec.Edges, SelectEdge{
			Src: src, FK: j.ProbeKey, Parent: b.Table, PK: j.BuildKey, Filter: b.Filter,
		})
		if j.Residual != nil {
			// FK inner joins never drop or duplicate probe rows, so a
			// mid-chain residual evaluates identically over the full row.
			residual = append(residual, j.Residual)
		}
	}
	return residual, true
}
