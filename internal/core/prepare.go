package core

import (
	"context"
	"fmt"
	"slices"
)

// Plan is a compiled statement, owned by whoever prepared it.
type Plan interface {
	// RunPartial executes the plan and returns its answer, a plan-owned
	// buffer overwritten by the plan's next run.
	RunPartial(ctx context.Context) (*SelectResult, Explain, error)
	// Fields is the result header.
	Fields() []OutField
}

// Prepare compiles a statement for the caller to keep and re-run, onto the
// tile pipeline of select.go. The plan scans on the worker gang when the
// statement is ungrouped or its group table is key-addressed and merges by
// addition, and a warm re-run allocates nothing.
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

// Techniques is the menu PrepareForced accepts for the statement: the tile
// pipeline's techniques, eager aggregation among them when the statement
// groups by a filtered edge's foreign key (eagerEdge).
func (e *Engine) Techniques(spec Select) []Technique {
	techs := selectTechs(spec)
	if e.eagerEdge(spec) >= 0 {
		techs = append(techs, TechEagerAggregation)
	}
	return techs
}

func (e *Engine) prepare(spec Select, tech Technique) (Plan, error) {
	p, err := e.prepareSelect(spec, tech)
	if err != nil {
		return nil, err // not p: a failed compile's nil pointer must not reach the interface
	}
	return p, nil
}
