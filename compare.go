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
	// Explain is the forced plan's record: the table form the strategy ran
	// on (DenseDomain) and the priced alternatives (Costs).
	Explain Explain
}

// CompareStrategies executes an aggregation query under every strategy it
// can be forced onto — the hybrid kernel and SWOLE's masking pullups —
// returning per-strategy runtimes and (identical) answers. It is the
// paper's Figure 1/3/4 experiment on your own data: every synthesized
// statement races the tile pipeline's hybrid, value-masking and — when
// grouped — key-masking kernels, and a groupjoin over a filtered parent
// eager aggregation too. Each strategy's plan is prepared before its timed
// run, so the runtimes compare kernels, not who paid for sampling. The
// data-centric baseline is not among them; GenerateCode emits its loop for
// a single-table statement.
func (d *DB) CompareStrategies(q string) ([]StrategyRun, error) {
	p, err := d.Plan(q)
	if err != nil {
		return nil, err
	}
	spec, ok := core.Synthesize(d.db, p)
	if !ok {
		return nil, fmt.Errorf("swole: CompareStrategies supports aggregation queries")
	}
	var runs []StrategyRun
	for _, tech := range d.engine.Techniques(spec) {
		// Plans run one after another, so they can share the spec's trees.
		forced, err := d.engine.PrepareForced(spec, tech)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, ex, err := forced.RunContext(context.Background())
		runtime := time.Since(start)
		if err != nil {
			return nil, err
		}
		// The forced plan is dropped here, so the result may keep aliasing
		// its buffers.
		out := newResult(forced.Fields())
		out.flat = res.Flat
		runs = append(runs, StrategyRun{Strategy: tech.String(), Runtime: runtime, Result: &out, Explain: fromCore(ex)})
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
