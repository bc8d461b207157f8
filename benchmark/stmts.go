package main

import (
	"context"
	"fmt"
	"strings"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
)

// stmt is one SQL statement of a workload.
type stmt struct {
	id  string
	sql string
	// classic, when set, prepares the statement's hand-built core spec on
	// an engine: the entry point of the core rungs of the layer ladder.
	// Generic statements (core.PrepareSelect) have none, because their
	// spec is built by the root package's private synthesizer.
	classic func(e *core.Engine) (coreRun, error)
	// generic marks statements expected to run through core.PrepareSelect.
	generic bool
	// countsRows marks the serve_mixed visibility probe: its answer must
	// equal the number of rows of r, appended rows included.
	countsRows bool

	// request is the statement's POST /query body, encoded on first use.
	request []byte

	// want is the oracle's answer at the table state wantState ("init",
	// or "rows=N" once rows were appended), filled in by verification.
	want      answer
	wantState string
}

// coreRun executes a prepared core plan once. The answer is digested by
// the returned function, after the caller has stopped its clock.
type coreRun func(ctx context.Context) (func() answer, core.Explain, error)

// cmp is "col op k"; conj is a conjunction of them. Both render to SQL
// and build the equivalent expression tree, so a classic statement and
// its hand-built spec come from one description.
type cmp struct {
	col string
	op  expr.CmpOp
	k   int64
}

type conj []cmp

func (c conj) sql() string {
	parts := make([]string, len(c))
	for i, p := range c {
		parts[i] = fmt.Sprintf("%s %s %d", p.col, p.op, p.k)
	}
	return strings.Join(parts, " and ")
}

// expr builds a fresh tree on every call: binding mutates nodes in place.
func (c conj) expr() expr.Expr {
	if len(c) == 0 {
		return nil
	}
	args := make([]expr.Expr, len(c))
	for i, p := range c {
		args[i] = &expr.Cmp{Op: p.op, L: expr.NewCol(p.col), R: &expr.Const{Val: p.k}}
	}
	if len(args) == 1 {
		return args[0]
	}
	return &expr.Logic{Op: expr.And, Args: args}
}

// val is an aggregate argument: a column, a product of two, or the
// constant 1 (count(*)) when both are empty.
type val struct{ a, b string }

func (v val) sql() string {
	switch {
	case v.a == "":
		return "count(*)"
	case v.b == "":
		return "sum(" + v.a + ")"
	}
	return "sum(" + v.a + " * " + v.b + ")"
}

func (v val) expr() expr.Expr {
	switch {
	case v.a == "":
		return &expr.Const{Val: 1}
	case v.b == "":
		return expr.NewCol(v.a)
	}
	return &expr.Arith{Op: expr.Mul, L: expr.NewCol(v.a), R: expr.NewCol(v.b)}
}

func where(parts ...string) string {
	var keep []string
	for _, p := range parts {
		if p != "" {
			keep = append(keep, p)
		}
	}
	if len(keep) == 0 {
		return ""
	}
	return " where " + strings.Join(keep, " and ")
}

func scalarRun(run func(context.Context) (int64, core.Explain, error)) coreRun {
	return func(ctx context.Context) (func() answer, core.Explain, error) {
		v, ex, err := run(ctx)
		return func() answer { return digestRows([][]int64{{v}}) }, ex, err
	}
}

func groupRun(run func(context.Context) (*core.GroupResult, core.Explain, error)) coreRun {
	return func(ctx context.Context) (func() answer, core.Explain, error) {
		g, ex, err := run(ctx)
		return func() answer { return digestPairs(g.Flat) }, ex, err
	}
}

// scalarStmt is the classic filtered scalar aggregation.
func scalarStmt(id, table string, filter conj, agg val) *stmt {
	return &stmt{
		id:  id,
		sql: "select " + agg.sql() + " as s from " + table + where(filter.sql()),
		classic: func(e *core.Engine) (coreRun, error) {
			p, err := e.PrepareScalarAgg(core.ScalarAgg{Table: table, Filter: filter.expr(), Agg: agg.expr()})
			if err != nil {
				return nil, err
			}
			return scalarRun(p.RunContext), nil
		},
	}
}

// groupStmt is the classic single-key group-by aggregation.
func groupStmt(id, table string, filter conj, key string, agg val) *stmt {
	return &stmt{
		id:  id,
		sql: "select " + key + ", " + agg.sql() + " as s from " + table + where(filter.sql()) + " group by " + key,
		classic: func(e *core.Engine) (coreRun, error) {
			p, err := e.PrepareGroupAgg(core.GroupAgg{Table: table, Filter: filter.expr(), Key: expr.NewCol(key), Agg: agg.expr()})
			if err != nil {
				return nil, err
			}
			return groupRun(p.RunContext), nil
		},
	}
}

// fkEdge names one registered foreign key.
type fkEdge struct{ probe, fk, build, pk string }

func (e fkEdge) sql() string { return e.fk + " = " + e.pk }

// semiStmt is the classic semijoin aggregation over a foreign key.
func semiStmt(id string, e fkEdge, probeFilter, buildFilter conj, agg val) *stmt {
	return &stmt{
		id: id,
		sql: "select " + agg.sql() + " as s from " + e.probe + ", " + e.build +
			where(e.sql(), buildFilter.sql(), probeFilter.sql()),
		classic: func(en *core.Engine) (coreRun, error) {
			p, err := en.PrepareSemiJoinAgg(core.SemiJoinAgg{
				Probe: e.probe, Build: e.build, FK: e.fk, PK: e.pk,
				ProbeFilter: probeFilter.expr(), BuildFilter: buildFilter.expr(), Agg: agg.expr(),
			})
			if err != nil {
				return nil, err
			}
			return scalarRun(p.RunContext), nil
		},
	}
}

// gjoinStmt is the classic groupjoin aggregation keyed by the foreign key.
func gjoinStmt(id string, e fkEdge, buildFilter conj, agg val) *stmt {
	return &stmt{
		id: id,
		sql: "select " + e.fk + ", " + agg.sql() + " as s from " + e.probe + ", " + e.build +
			where(e.sql(), buildFilter.sql()) + " group by " + e.fk,
		classic: func(en *core.Engine) (coreRun, error) {
			p, err := en.PrepareGroupJoinAgg(core.GroupJoinAgg{
				Probe: e.probe, Build: e.build, FK: e.fk, PK: e.pk,
				BuildFilter: buildFilter.expr(), Agg: agg.expr(),
			})
			if err != nil {
				return nil, err
			}
			return groupRun(p.RunContext), nil
		},
	}
}

func genericStmt(id, sql string) *stmt { return &stmt{id: id, sql: sql, generic: true} }

// The microbenchmark schema (internal/micro): r_x is uniform in [0,100),
// so "r_x < SEL" selects SEL percent; s_x likewise on the dimension.
var microEdge = fkEdge{probe: "r", fk: "r_fk", build: "s", pk: "s_pk"}

func lt(col string, k int64) cmp { return cmp{col, expr.LT, k} }

func microScalar(sel int64) *stmt {
	return scalarStmt(fmt.Sprintf("scalar.s%02d", sel), "r",
		conj{lt("r_x", sel), {"r_y", expr.EQ, 1}}, val{"r_a", "r_b"})
}

func microGroup(key string, sel int64) *stmt {
	return groupStmt(fmt.Sprintf("group_%s.s%02d", key, sel), "r", conj{lt("r_x", sel)}, key, val{a: "r_b"})
}

func microSemi(sel int64) *stmt {
	return semiStmt(fmt.Sprintf("semijoin.s%02d", sel), microEdge, conj{lt("r_x", 50)}, conj{lt("s_x", sel)}, val{a: "r_a"})
}

func microGJoin(sel int64) *stmt {
	return gjoinStmt(fmt.Sprintf("groupjoin.s%02d", sel), microEdge, conj{lt("s_x", sel)}, val{a: "r_a"})
}

// microGeneric are two statements over the micro schema that only the
// generic executor can run; the traced run uses them for
// core.select_run_ms on workloads whose own statements are all classic.
func microGeneric() []*stmt {
	return []*stmt{
		genericStmt("aux.or_having", "select r_a, sum(r_b) as s, count(*) as n from r where r_x < 50 or r_b < 10 group by r_a having count(*) > 0"),
		genericStmt("aux.join_minmax", "select min(r_x) as lo, max(r_b) as hi, sum(r_a) as s from r, s where r_fk = s_pk and s_x < 50"),
	}
}
