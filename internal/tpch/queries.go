package tpch

import (
	"context"
	"fmt"
	"slices"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/volcano"
)

// Strategy identifies an execution strategy for a TPC-H query.
type Strategy int

// The strategies of Figure 6. Data-centric is hand-written for every query;
// hybrid and SWOLE are engine plans wherever the plan synthesizer accepts
// the query (OnEngine), and hand-written where it does not.
const (
	Volcano Strategy = iota // interpreted baseline (HyPer-substitute)
	DataCentric
	Hybrid
	Swole
)

// String names the strategy.
func (s Strategy) String() string {
	return [...]string{"volcano", "datacentric", "hybrid", "swole"}[s]
}

// Strategies lists all strategies in evaluation order.
var Strategies = []Strategy{Volcano, DataCentric, Hybrid, Swole}

// Query identifies one of the paper's eight evaluated TPC-H queries.
type Query int

// The eight queries of the paper's Figure 6.
const (
	Q1 Query = iota
	Q3
	Q4
	Q5
	Q6
	Q13
	Q14
	Q19
)

// String returns the TPC-H query name.
func (q Query) String() string {
	return [...]string{"Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19"}[q]
}

// Queries lists the paper's eight queries in Figure 6 order.
var Queries = []Query{Q1, Q3, Q4, Q5, Q6, Q13, Q14, Q19}

// Rows is a canonical query answer: every implementation of a query
// returns rows in the same deterministic order (the query's ORDER BY with
// full tiebreaks), so answers compare with plain equality.
type Rows [][]int64

// Equal reports deep equality.
func (r Rows) Equal(other Rows) bool { return slices.EqualFunc(r, other, slices.Equal) }

// hand lists the hand-written strategies: the data-centric baseline of
// every query, and hybrid and SWOLE of the queries the plan synthesizer
// declines — Q4's EXISTS, Q5's cyclic join and Q13's outer join. Hybrid and
// SWOLE of the other five run on the engine.
var hand = map[Query]map[Strategy]func(*Data) Rows{
	Q1:  {DataCentric: q1DataCentric},
	Q3:  {DataCentric: q3DataCentric},
	Q4:  {DataCentric: q4DataCentric, Hybrid: q4Hybrid, Swole: q4Swole},
	Q5:  {DataCentric: q5DataCentric, Hybrid: q5Hybrid, Swole: q5Swole},
	Q6:  {DataCentric: q6DataCentric},
	Q13: {DataCentric: q13DataCentric, Hybrid: q13Hybrid, Swole: q13Swole},
	Q14: {DataCentric: q14DataCentric},
	Q19: {DataCentric: q19DataCentric},
}

// OnEngine reports whether q runs under s as an engine plan: hybrid is the
// plan forced onto hybrid, SWOLE the cost model's plan.
func OnEngine(q Query, s Strategy) bool {
	return (s == Hybrid || s == Swole) && hand[q][s] == nil
}

// Runner executes a prepared query. An engine plan also returns its Explain;
// Volcano and the hand-written strategies return a zero one.
type Runner func() (Rows, core.Explain, error)

// Run executes query q under the given strategy.
func (d *Data) Run(q Query, s Strategy) (Rows, error) {
	run, err := d.Prepare(q, s)
	if err != nil {
		return nil, err
	}
	rows, _, err := run()
	return rows, err
}

// Prepare readies query q under strategy s and returns its runner, so that
// a timed run executes and compiles nothing: an engine plan is compiled
// here, on one worker like the hand-written kernels.
func (d *Data) Prepare(q Query, s Strategy) (Runner, error) {
	if !slices.Contains(Queries, q) || !slices.Contains(Strategies, s) {
		return nil, fmt.Errorf("tpch: no query %d under strategy %d", q, s)
	}
	if s == Volcano {
		p := Plan(q)
		return func() (Rows, core.Explain, error) {
			res, err := volcano.Run(context.Background(), p, d.DB)
			if err != nil {
				return nil, core.Explain{}, err
			}
			out := make(Rows, len(res.Rows))
			for i, row := range res.Rows {
				out[i] = row
			}
			return out, core.Explain{}, nil
		}, nil
	}
	if fn := hand[q][s]; fn != nil {
		return func() (Rows, core.Explain, error) { return fn(d), core.Explain{}, nil }, nil
	}
	spec, ok := core.Synthesize(d.DB, Plan(q))
	if !ok {
		return nil, fmt.Errorf("tpch: the synthesizer declines %s, which has no hand-written %s", q, s)
	}
	d.engineOnce.Do(func() {
		d.engine = core.NewEngine(d.DB)
		d.engine.Workers = 1
	})
	var prep *core.PreparedSelect
	var err error
	if s == Hybrid {
		prep, err = d.engine.PrepareForced(spec, core.TechHybrid)
	} else {
		prep, err = d.engine.Prepare(spec)
	}
	if err != nil {
		return nil, err
	}
	return func() (Rows, core.Explain, error) {
		res, ex, err := prep.RunContext(context.Background())
		if err != nil {
			return nil, ex, err
		}
		// The plan overwrites its result on the next run: the rows are a copy.
		flat, w := slices.Clone(res.Flat), len(res.Fields)
		rows := make(Rows, len(flat)/w)
		for i := range rows {
			rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
		}
		return rows, ex, nil
	}, nil
}

// Plan returns the logical plan for q, used by the Volcano engine and the
// code generator.
func Plan(q Query) plan.Node {
	switch q {
	case Q1:
		return q1Plan()
	case Q3:
		return q3Plan()
	case Q4:
		return q4Plan()
	case Q5:
		return q5Plan()
	case Q6:
		return q6Plan()
	case Q13:
		return q13Plan()
	case Q14:
		return q14Plan()
	case Q19:
		return q19Plan()
	}
	panic("tpch: unknown query")
}

// --- shared expression/constant helpers -------------------------------

func col(name string) *expr.Col { return expr.NewCol(name) }
func num(v int64) *expr.Const   { return &expr.Const{Val: v} }
func date(s string) *expr.Const {
	return &expr.Const{Val: int64(storage.MustParseDate(s)), Repr: "date '" + s + "'"}
}
func str(s string) *expr.StrConst { return &expr.StrConst{Val: s} }

func cmp(op expr.CmpOp, l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: op, L: l, R: r} }
func and(args ...expr.Expr) expr.Expr             { return &expr.Logic{Op: expr.And, Args: args} }
func or(args ...expr.Expr) expr.Expr              { return &expr.Logic{Op: expr.Or, Args: args} }
func mul(l, r expr.Expr) expr.Expr                { return &expr.Arith{Op: expr.Mul, L: l, R: r} }
func sub(l, r expr.Expr) expr.Expr                { return &expr.Arith{Op: expr.Sub, L: l, R: r} }
func add(l, r expr.Expr) expr.Expr                { return &expr.Arith{Op: expr.Add, L: l, R: r} }
func div(l, r expr.Expr) expr.Expr                { return &expr.Arith{Op: expr.Div, L: l, R: r} }

// revenueExpr is l_extendedprice * (100 - l_discount): fixed-point revenue
// scaled by 10^4 (price cents times discount hundredths).
func revenueExpr() expr.Expr {
	return mul(col("l_extendedprice"), sub(num(100), col("l_discount")))
}

// codeOf resolves a dictionary string, panicking on absence (these are
// fixed workload constants).
func codeOf(d *storage.Dict, s string) int64 {
	c, ok := d.Code(s)
	if !ok {
		panic("tpch: no dictionary entry for " + s)
	}
	return c
}
