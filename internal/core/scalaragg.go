package core

import (
	"context"
	"time"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// ScalarAgg is a filtered scalar sum: select sum(Agg) from Table where
// Filter — the shape of the paper's Section II example, micro Q1/Q3, and
// TPC-H Q6.
type ScalarAgg struct {
	Table  string
	Filter expr.Expr // nil selects everything
	Agg    expr.Expr // summed expression
}

// PreparedScalarAgg is the compiled plan for a scalar aggregation: the
// technique decision, the kernel for it, and every buffer the execution
// needs. See compile.go for the compile/run contract.
type PreparedScalarAgg struct {
	planCore
	rows   int
	filter expr.Expr
	agg    expr.Expr
	parts  *exec.Partials
	kernel kernelFn

	// aggCol is the aggregate's storage column when the aggregate is a
	// bare column reference, bound at compile time so the masking kernel
	// can run the fused native-width masked sum (Column.SumMaskedRange)
	// instead of widening through the evaluator. Nil otherwise.
	aggCol *storage.Column

	// The technique menu, built with the plan over the fields above.
	kTuple  kernelFn // data-centric tuple-at-a-time (forced only)
	kHybrid kernelFn // pushdown through a selection vector
	kMask   kernelFn // value masking / access merging
}

// newScalarPlan builds an empty plan with its kernel menu; the closures
// read the fields compileScalarAgg fills in.
func newScalarPlan() *PreparedScalarAgg {
	p := &PreparedScalarAgg{}
	p.kTuple = func(w, base, length int) {
		// Single tuple-at-a-time loop with a branch (Figure 1, left).
		var sum int64
		for i := base; i < base+length; i++ {
			if p.filter == nil || expr.Eval(p.filter, i) != 0 {
				sum += expr.Eval(p.agg, i)
			}
		}
		p.parts.Add(w, sum)
	}
	p.kHybrid = func(w, base, length int) {
		s := &p.states[w]
		var sum int64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			n, d := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(d)
			// Conditional access: the aggregate is evaluated only for
			// selected tuples.
			for j := 0; j < n; j++ {
				sum += expr.Eval(p.agg, b+int(s.Idx[j]))
			}
		})
		p.parts.Add(w, sum)
	}
	p.kMask = func(w, base, length int) {
		s := &p.states[w]
		var sum int64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			if p.aggCol != nil {
				// Fused masked sum at the column's native lane width: the
				// value pass reads 1-8 bytes per lane instead of widening
				// every lane to int64 first.
				sum += p.aggCol.SumMaskedRange(b, tl, s.Cmp[:tl])
			} else {
				s.ev.EvalInt(p.agg, b, tl, s.Vals)
				sum += vec.SumMaskedU(s.Vals[:tl], s.Cmp[:tl])
			}
			s.ctr.MaskedAgg++
		})
		p.parts.Add(w, sum)
	}
	return p
}

// compileScalarAgg plans a scalar aggregation: it validates and binds the
// query, samples statistics through the cache, evaluates the Section III-A
// cost models, and binds the chosen kernel and resources. tech overrides
// the decision (forced execution); techAuto defers to the model.
func (e *Engine) compileScalarAgg(q ScalarAgg, tech Technique) (*PreparedScalarAgg, error) {
	start := time.Now()
	t := e.DB.Table(q.Table)
	if t == nil {
		return nil, errNoTable(q.Table)
	}
	if q.Filter != nil {
		if err := expr.Bind(q.Filter, t); err != nil {
			return nil, err
		}
	}
	if err := expr.Bind(q.Agg, t); err != nil {
		return nil, err
	}
	e.execMu.Lock() // the worker count is configuration: see Reconfigure
	defer e.execMu.Unlock()
	p := newScalarPlan()
	fresh := p.bindCore(e, tech != techAuto) + 1
	p.rows = t.Rows()
	p.filter, p.agg = q.Filter, q.Agg
	if c, ok := q.Agg.(*expr.Col); ok {
		p.aggCol = c.Column()
	}
	p.parts = exec.NewPartials(p.nw)

	params := e.Params.ForWorkers(p.nw)
	statsStart := time.Now()
	sel, statsHit := e.selectivity(t, q.Filter)
	statsTime := time.Since(statsStart)
	comp := expr.CompCost(q.Agg, params)
	p.ex = Explain{
		Selectivity: sel,
		CompCost:    comp,
		Workers:     p.nw,
		StatsCached: statsHit,
		PlanCached:  true,
		FreshAllocs: fresh,
		Costs: map[string]float64{
			"hybrid":        params.Hybrid(p.rows, sel, comp),
			"value-masking": params.ValueMasking(p.rows, comp),
		},
		Merged: shared(q.Filter, q.Agg),
	}
	if tech == techAuto {
		tech = TechHybrid
		if strat, _ := params.ChooseScalarAgg(p.rows, sel, comp); strat == cost.ChooseValueMasking {
			// A masking win with shared filter/aggregate attributes is
			// reported as access merging (Section III-C: "always beneficial
			// if it can be applied") — under the generic tiled evaluator the
			// shared attribute's second read hits the tile still resident
			// in cache.
			tech = TechValueMasking
			if len(p.ex.Merged) > 0 {
				tech = TechAccessMerging
			}
		}
	}
	p.ex.Technique = tech
	switch tech {
	case TechDataCentric:
		p.kernel = p.kTuple
	case TechValueMasking, TechAccessMerging:
		p.kernel = p.kMask
	default:
		p.kernel = p.kHybrid
	}
	p.compiled(start, statsTime)
	return p, nil
}

// Run executes the prepared aggregation. Allocation-free after the first
// call.
func (p *PreparedScalarAgg) Run() (int64, Explain) {
	sum, ex, _ := p.RunContext(nil)
	return sum, ex
}

// RunContext executes the prepared aggregation under the context's
// deadline: workers poll it at morsel granularity, so cancellation stops
// the scan within one morsel and returns ctx's error with the plan's
// buffers intact for the next run.
//
// Execution is morsel-parallel on the engine's persistent worker gang:
// workers claim cache-sized row ranges, run the chosen tiled kernel
// branch-free within each morsel, and accumulate into private partials;
// the merge phase sums the partials, so the result is identical at every
// worker count.
func (p *PreparedScalarAgg) RunContext(ctx context.Context) (int64, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	p.parts.Reset()
	start := time.Now()
	p.scan(ctx, p.rows, p.kernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return 0, Explain{}, p.canceled(err)
	}
	start = time.Now()
	sum := p.parts.Sum()
	p.sumVariants()
	p.ex.MergeTime = time.Since(start)
	return sum, p.snapshot(), nil
}

// RunPartial implements Plan.
func (p *PreparedScalarAgg) RunPartial(ctx context.Context) (Partial, Explain, error) {
	sum, ex, err := p.RunContext(ctx)
	return Partial{Sum: sum}, ex, err
}

// PrepareScalarAgg compiles a scalar aggregation once — statistics
// (through the cache), the cost-model decision between the hybrid pushdown
// and value masking (Section III-A, evaluated with each worker's bandwidth
// share), kernel and buffer binding — for the caller to keep and re-run.
func (e *Engine) PrepareScalarAgg(q ScalarAgg) (*PreparedScalarAgg, error) {
	return e.compileScalarAgg(q, techAuto)
}

// shared returns attributes referenced by both expressions.
func shared(a, b expr.Expr) []string {
	if a == nil || b == nil {
		return nil
	}
	inA := map[string]bool{}
	for _, c := range expr.Cols(a) {
		inA[c] = true
	}
	var out []string
	for _, c := range expr.Cols(b) {
		if inA[c] {
			out = append(out, c)
		}
	}
	return out
}
