package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// Plan is a compiled statement, owned by whoever prepared it.
type Plan interface {
	// RunPartial executes the plan and returns its answer; see Partial.
	RunPartial(ctx context.Context) (Partial, Explain, error)
	// Fields is the result header.
	Fields() []OutField
}

// Partial is one plan run's answer: Groups for the classic group-by's
// hand-specialized plan, Rows otherwise. Both are plan-owned buffers
// overwritten by the plan's next run.
type Partial struct {
	Groups *GroupResult
	Rows   *SelectResult
}

// Prepare compiles a statement for the caller to keep and re-run. A spec
// that collapses to the paper's classic group-by lowers onto its
// hand-specialized plan (morsel-parallel kernels, radix partitioning);
// everything else compiles onto the tile pipeline of select.go, which scans
// on the worker gang when the statement is ungrouped or its group table is
// key-addressed and merges by addition. Either way a warm re-run allocates
// nothing.
func (e *Engine) Prepare(spec Select) (Plan, error) {
	return e.prepare(spec, techAuto)
}

// PrepareForced compiles a statement under the caller's technique instead
// of the cost model's pick — strategy comparisons on user queries, ablation
// studies, kernel parity tests. Techniques lists what a statement accepts.
// Forced plans scan sequentially: they measure kernel character, not
// parallel speedup.
func (e *Engine) PrepareForced(spec Select, tech Technique) (Plan, error) {
	if !slices.Contains(e.Techniques(spec), tech) {
		return nil, fmt.Errorf("core: technique %s cannot be forced on this statement", tech)
	}
	return e.prepare(spec, tech)
}

// groupTechs are the techniques a forced compile of the classic group-by may
// name.
var groupTechs = []Technique{TechDataCentric, TechHybrid, TechValueMasking, TechKeyMasking}

// Techniques is the menu PrepareForced accepts for the statement: the
// classic group-by's kernels, or the tile pipeline's techniques for
// everything it runs — eager aggregation among them when the statement
// groups by a filtered edge's foreign key (eagerEdge).
func (e *Engine) Techniques(spec Select) []Technique {
	if arg, _ := e.classic(spec); arg != nil {
		return groupTechs
	}
	techs := selectTechs(spec)
	if e.eagerEdge(spec) >= 0 {
		techs = append(techs, TechEagerAggregation)
	}
	return techs
}

func (e *Engine) prepare(spec Select, tech Technique) (Plan, error) {
	arg, fields := e.classic(spec)
	if arg == nil {
		p, err := e.prepareSelect(spec, tech)
		if err != nil {
			return nil, err // not p: a failed compile's nil pointer must not reach the interface
		}
		return p, nil
	}
	p, err := e.compileGroupAgg(GroupAgg{
		Table: spec.Root, Filter: spec.Filter, Key: expr.NewCol(spec.GroupBy[0]), Agg: arg,
	}, tech)
	if err != nil {
		return nil, err // not p: a failed compile's nil pointer must not reach the interface
	}
	p.setFields(fields)
	return p, nil
}

// classic recognizes the statements the classic group-by's hand plan covers:
// a single sum(expr) or count(*) under one group key of the root, no join,
// HAVING or residual, and the canonical projection (the group key under its
// own name, then the aggregate alias — reordered or aliased output needs the
// tile pipeline's projection stage). It returns the summed expression and
// the result header; a nil expression sends the statement to the tile
// pipeline.
func (e *Engine) classic(spec Select) (expr.Expr, []OutField) {
	root := e.DB.Table(spec.Root)
	if root == nil || len(spec.Aggs) != 1 || spec.Having != nil || spec.Residual != nil ||
		len(spec.GroupBy) != 1 || len(spec.Edges) > 0 || len(spec.Project) != 2 {
		return nil, nil
	}
	arg := spec.Aggs[0].Arg
	switch {
	case spec.Aggs[0].Kind == AggSum && arg != nil:
	case spec.Aggs[0].Kind == AggCount && arg == nil:
		arg = &expr.Const{Val: 1} // count(*) is sum(1)
	default:
		return nil, nil
	}
	key := root.Column(spec.GroupBy[0])
	if key == nil {
		return nil, nil
	}
	fields := []OutField{
		{Name: spec.GroupBy[0], Dict: key.Dict, Log: key.Log},
		{Name: spec.Aggs[0].As, Log: storage.LogInt},
	}
	for i, f := range fields {
		c, ok := spec.Project[i].Expr.(*expr.Col)
		if !ok || c.Name != f.Name || spec.Project[i].As != f.Name {
			return nil, nil
		}
	}
	return arg, fields
}
