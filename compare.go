package swole

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/reprolab/swole/internal/core"
)

// StrategyRun is one strategy's execution of a query in CompareStrategies.
type StrategyRun struct {
	Strategy string
	Runtime  time.Duration
	Result   *Result
}

// CompareStrategies executes a supported aggregation query under every
// applicable strategy — data-centric, hybrid, and SWOLE's masking pullups
// — returning per-strategy runtimes and (identical) answers. It is the
// paper's Figure 1/3/4 experiment on your own data. Supported shapes:
// single-table scalar or single-key group-by aggregation with a single
// sum (or count(*)) aggregate. Each strategy's plan is prepared before its
// timed run, so the runtimes compare kernels, not who paid for sampling.
func (d *DB) CompareStrategies(q string) ([]StrategyRun, error) {
	p, err := d.Plan(q)
	if err != nil {
		return nil, err
	}
	spec, ok := d.synthesize(p)
	if !ok {
		return nil, fmt.Errorf("swole: CompareStrategies supports aggregation queries")
	}
	techs := []core.Technique{core.TechDataCentric, core.TechHybrid, core.TechValueMasking}
	if len(spec.GroupBy) > 0 {
		techs = append(techs, core.TechKeyMasking)
	}
	var runs []StrategyRun
	for _, tech := range techs {
		// Plans run one after another, so they can share the spec's trees.
		forced, err := d.engine.PrepareForced(spec, tech)
		if err != nil {
			return nil, fmt.Errorf("swole: CompareStrategies supports a single sum or count(*) over one table with at most one group-by key: %w", err)
		}
		start := time.Now()
		part, _, err := forced.RunPartial(context.Background())
		runtime := time.Since(start)
		if err != nil {
			return nil, err
		}
		// The forced plan is dropped here, so the result may keep aliasing
		// its buffers.
		c := &cachedPlan{}
		c.setFields(forced.Fields())
		c.put(part)
		runs = append(runs, StrategyRun{Strategy: tech.String(), Runtime: runtime, Result: &c.res})
	}
	return runs, nil
}

// FastestStrategy returns the winning run of a CompareStrategies result.
func FastestStrategy(runs []StrategyRun) StrategyRun {
	out := make([]StrategyRun, len(runs))
	copy(out, runs)
	sort.Slice(out, func(a, b int) bool { return out[a].Runtime < out[b].Runtime })
	return out[0]
}
