package core

import (
	"context"

	"github.com/reprolab/swole/internal/expr"
)

// benchmark/ still spells the two ungrouped classic statements as ScalarAgg
// and SemiJoinAgg and runs them through RunContext(ctx) (int64, Explain,
// error), and the groupjoin as GroupJoinAgg through RunContext(ctx)
// (*GroupResult, Explain, error). This file lowers all three onto
// Prepare(Select); it is deleted when benchmark/ migrates to Engine.Prepare
// (ROADMAP direction 1).

// ScalarAgg is select sum(Agg) from Table where Filter.
type ScalarAgg struct {
	Table       string
	Filter, Agg expr.Expr
}

// SemiJoinAgg is select sum(Agg) from Probe, Build where Probe.FK = Build.PK
// and ProbeFilter and BuildFilter.
type SemiJoinAgg struct {
	Probe, Build, FK, PK          string
	ProbeFilter, BuildFilter, Agg expr.Expr
}

// GroupJoinAgg is select Probe.FK, sum(Agg) from Probe, Build where
// Probe.FK = Build.PK and BuildFilter group by Probe.FK — the shape of
// Section III-E and micro Q5.
type GroupJoinAgg struct {
	Probe, Build, FK, PK string
	BuildFilter, Agg     expr.Expr
}

// sumPlan reads a lowered statement's single result cell.
type sumPlan struct{ Plan }

func (p sumPlan) RunContext(ctx context.Context) (int64, Explain, error) {
	part, ex, err := p.RunPartial(ctx)
	if err != nil {
		return 0, ex, err
	}
	return part.Rows.Flat[0], ex, nil
}

// pairsPlan reads a lowered groupjoin's two-column answer, which is the
// interleaved (key, sum) layout of a GroupResult.
type pairsPlan struct {
	Plan
	out GroupResult
}

func (p *pairsPlan) RunContext(ctx context.Context) (*GroupResult, Explain, error) {
	part, ex, err := p.RunPartial(ctx)
	if err != nil {
		return nil, ex, err
	}
	p.out.Flat = part.Rows.Flat
	return &p.out, ex, nil
}

func (e *Engine) PrepareScalarAgg(q ScalarAgg) (sumPlan, error) {
	p, err := e.Prepare(scalarSpec(q))
	return sumPlan{p}, err
}

func (e *Engine) PrepareSemiJoinAgg(q SemiJoinAgg) (sumPlan, error) {
	p, err := e.Prepare(semiSpec(q))
	return sumPlan{p}, err
}

func (e *Engine) PrepareGroupJoinAgg(q GroupJoinAgg) (*pairsPlan, error) {
	p, err := e.Prepare(gjoinSpec(q))
	if err != nil {
		return nil, err
	}
	return &pairsPlan{Plan: p}, nil
}

func scalarSpec(q ScalarAgg) Select { return classicSpec(q.Table, q.Filter, nil, nil, q.Agg) }

func semiSpec(q SemiJoinAgg) Select {
	edge := SelectEdge{Src: -1, FK: q.FK, Parent: q.Build, PK: q.PK, Filter: q.BuildFilter}
	return classicSpec(q.Probe, q.ProbeFilter, nil, []SelectEdge{edge}, q.Agg)
}

func gjoinSpec(q GroupJoinAgg) Select {
	edge := SelectEdge{Src: -1, FK: q.FK, Parent: q.Build, PK: q.PK, Filter: q.BuildFilter}
	return classicSpec(q.Probe, nil, []string{q.FK}, []SelectEdge{edge}, q.Agg)
}

// classicSpec spells a classic-shape query as the Select the plan synthesizer
// emits for it: one sum aliased "s" and the canonical projection.
func classicSpec(root string, filter expr.Expr, groupBy []string, edges []SelectEdge, agg expr.Expr) Select {
	spec := Select{
		Root: root, Filter: filter, Edges: edges, GroupBy: groupBy,
		Aggs: []SelectAgg{{Kind: AggSum, Arg: agg, As: "s"}},
	}
	for _, name := range append(groupBy[:len(groupBy):len(groupBy)], "s") {
		spec.Project = append(spec.Project, SelectProj{Expr: expr.NewCol(name), As: name})
	}
	return spec
}
