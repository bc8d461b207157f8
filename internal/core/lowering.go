package core

import (
	"context"

	"github.com/reprolab/swole/internal/expr"
)

// benchmark/ still spells the classic statements as ScalarAgg, SemiJoinAgg,
// GroupAgg and GroupJoinAgg and runs them through RunContext(ctx): the two
// ungrouped ones answering (int64, Explain, error), the two grouped ones
// (*GroupResult, Explain, error). This file lowers all four onto
// Prepare(Select); it is deleted when benchmark/ migrates to Engine.Prepare
// (ROADMAP's "First" item).

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

// GroupAgg is select Key, sum(Agg) from Table where Filter group by Key — the
// shape of Section III-B and micro Q2.
type GroupAgg struct {
	Table       string
	Filter, Agg expr.Expr
	Key         *expr.Col
}

// GroupJoinAgg is select Probe.FK, sum(Agg) from Probe, Build where
// Probe.FK = Build.PK and BuildFilter group by Probe.FK — the shape of
// Section III-E and micro Q5.
type GroupJoinAgg struct {
	Probe, Build, FK, PK string
	BuildFilter, Agg     expr.Expr
}

// GroupResult is a lowered grouped statement's answer: the groups as
// interleaved (key, sum) pairs with keys ascending, aliasing the plan's
// result buffer.
type GroupResult struct {
	// Flat holds group i's key at Flat[2i] and its sum at Flat[2i+1].
	Flat []int64
}

// Len returns the number of groups.
func (g *GroupResult) Len() int { return len(g.Flat) / 2 }

// Key returns group i's key.
func (g *GroupResult) Key(i int) int64 { return g.Flat[2*i] }

// Sum returns group i's aggregate.
func (g *GroupResult) Sum(i int) int64 { return g.Flat[2*i+1] }

// sumPlan reads a lowered statement's single result cell.
type sumPlan struct{ *PreparedSelect }

func (p sumPlan) RunContext(ctx context.Context) (int64, Explain, error) {
	res, ex, err := p.PreparedSelect.RunContext(ctx)
	if err != nil {
		return 0, ex, err
	}
	return res.Flat[0], ex, nil
}

// pairsPlan reads a lowered grouped statement's two-column answer, which is
// the interleaved (key, sum) layout of a GroupResult.
type pairsPlan struct {
	*PreparedSelect
	out GroupResult
}

func (p *pairsPlan) RunContext(ctx context.Context) (*GroupResult, Explain, error) {
	res, ex, err := p.PreparedSelect.RunContext(ctx)
	if err != nil {
		return nil, ex, err
	}
	p.out.Flat = res.Flat
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

func (e *Engine) PrepareGroupAgg(q GroupAgg) (*pairsPlan, error) {
	return pairs(e.Prepare(groupSpec(q)))
}

func (e *Engine) PrepareGroupJoinAgg(q GroupJoinAgg) (*pairsPlan, error) {
	return pairs(e.Prepare(gjoinSpec(q)))
}

func pairs(p *PreparedSelect, err error) (*pairsPlan, error) {
	if err != nil {
		return nil, err
	}
	return &pairsPlan{PreparedSelect: p}, nil
}

func scalarSpec(q ScalarAgg) Select { return classicSpec(q.Table, q.Filter, nil, nil, q.Agg) }

func groupSpec(q GroupAgg) Select {
	return classicSpec(q.Table, q.Filter, []string{q.Key.Name}, nil, q.Agg)
}

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
