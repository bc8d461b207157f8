// Package volcano implements a tuple-at-a-time interpreted iterator engine
// (Graefe's Volcano model). In this repository it plays the role HyPer
// v0.5 plays in the paper's evaluation: a generic engine that executes the
// same logical plans and serves as a sanity check that the hand-specialized
// strategy kernels are correct (every strategy implementation is verified
// against Volcano's answers) and reasonable (they must all beat it, since
// interpretation overhead stands in for full-system overhead).
package volcano

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// Row is one widened intermediate tuple. An alias, so a result's rows can
// be the [][]int64 headers a compiled plan already holds (core.SelectResult).
type Row = []int64

// Result is a fully materialized query answer.
type Result struct {
	Fields expr.Fields
	Rows   []Row
}

// iterator is the classic Volcano interface.
type iterator interface {
	open() error
	next() (Row, bool, error)
	close()
}

// source is what a plan's operators are built over: the one catalog the
// statement reads, and the statement's context, which scans poll.
type source struct {
	ctx context.Context
	*storage.Catalog
}

// pollRows is how many rows a scan reads between two polls of the context.
const pollRows = 4096

// Run executes a logical plan and materializes the answer. Scans poll ctx
// every pollRows rows, so a canceled or expired statement stops within a few
// thousand rows and returns ctx's error; a deadline that passes after the
// last poll — in a sort, say — fails the statement once the rows are in.
func Run(ctx context.Context, n plan.Node, db *storage.Database) (*Result, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	it, fields, err := build(n, source{ctx, db.Catalog()})
	if err != nil {
		return nil, err
	}
	if err := it.open(); err != nil {
		return nil, err
	}
	defer it.close()
	res := &Result{Fields: fields}
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
				return res, nil
			}
		}
		res.Rows = append(res.Rows, row)
	}
}

func build(n plan.Node, db source) (iterator, expr.Fields, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return buildScan(x, db)
	case *plan.Filter:
		return buildFilter(x, db)
	case *plan.Map:
		return buildMap(x, db)
	case *plan.Join:
		return buildJoin(x, db)
	case *plan.GroupJoin:
		return buildGroupJoin(x, db)
	case *plan.Aggregate:
		return buildAggregate(x, db)
	case *plan.Sort:
		return buildSort(x, db)
	}
	return nil, nil, fmt.Errorf("volcano: unsupported node %T", n)
}

// ---------------------------------------------------------------- scan

type scanIter struct {
	ctx    context.Context
	table  *storage.Table
	filter expr.Expr
	row    int
	out    Row
}

func buildScan(s *plan.Scan, db source) (iterator, expr.Fields, error) {
	t := db.Table(s.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("volcano: no table %s", s.Table)
	}
	if s.Filter != nil {
		if err := expr.Bind(s.Filter, expr.Columns(t)); err != nil {
			return nil, nil, err
		}
	}
	fields := make(expr.Fields, len(t.Columns))
	for i, c := range t.Columns {
		fields[i] = expr.Field{Name: c.Name, Dict: c.Dict, Log: c.Log}
	}
	return &scanIter{ctx: db.ctx, table: t, filter: s.Filter}, fields, nil
}

func (it *scanIter) open() error {
	it.row = 0
	it.out = make(Row, len(it.table.Columns))
	return nil
}

func (it *scanIter) next() (Row, bool, error) {
	for it.row < it.table.Rows() {
		r := it.row
		it.row++
		if r%pollRows == 0 {
			if err := it.ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		if it.filter != nil && expr.Eval(it.filter, r, nil) == 0 {
			continue
		}
		out := make(Row, len(it.table.Columns))
		for i, c := range it.table.Columns {
			out[i] = c.Get(r)
		}
		return out, true, nil
	}
	return nil, false, nil
}

func (it *scanIter) close() {}

// ---------------------------------------------------------------- filter

type filterIter struct {
	in   iterator
	pred expr.Expr
}

func buildFilter(f *plan.Filter, db source) (iterator, expr.Fields, error) {
	in, fields, err := build(f.Input, db)
	if err != nil {
		return nil, nil, err
	}
	if err := expr.Bind(f.Pred, fields); err != nil {
		return nil, nil, err
	}
	return &filterIter{in: in, pred: f.Pred}, fields, nil
}

func (it *filterIter) open() error { return it.in.open() }

func (it *filterIter) next() (Row, bool, error) {
	for {
		row, ok, err := it.in.next()
		if !ok || err != nil {
			return nil, false, err
		}
		if expr.Eval(it.pred, 0, row) != 0 {
			return row, true, nil
		}
	}
}

func (it *filterIter) close() { it.in.close() }

// ---------------------------------------------------------------- map

type mapIter struct {
	in    iterator
	exprs []plan.NamedExpr
}

func buildMap(m *plan.Map, db source) (iterator, expr.Fields, error) {
	in, fields, err := build(m.Input, db)
	if err != nil {
		return nil, nil, err
	}
	out := make(expr.Fields, len(m.Exprs))
	for i, ne := range m.Exprs {
		if err := expr.Bind(ne.Expr, fields); err != nil {
			return nil, nil, err
		}
		out[i] = expr.Field{Name: ne.As, Log: inferLog(ne.Expr, fields)}
		if c, ok := ne.Expr.(*expr.Col); ok {
			if idx := fields.Index(c.Name); idx >= 0 {
				out[i].Dict = fields[idx].Dict
			}
		}
	}
	return &mapIter{in: in, exprs: m.Exprs}, out, nil
}

func inferLog(e expr.Expr, fields expr.Fields) storage.Logical {
	if c, ok := e.(*expr.Col); ok {
		if idx := fields.Index(c.Name); idx >= 0 {
			return fields[idx].Log
		}
	}
	return storage.LogInt
}

func (it *mapIter) open() error { return it.in.open() }

func (it *mapIter) next() (Row, bool, error) {
	row, ok, err := it.in.next()
	if !ok || err != nil {
		return nil, false, err
	}
	out := make(Row, len(it.exprs))
	for i, ne := range it.exprs {
		out[i] = expr.Eval(ne.Expr, 0, row)
	}
	return out, true, nil
}

func (it *mapIter) close() { it.in.close() }

// ---------------------------------------------------------------- sort

type sortIter struct {
	in     iterator
	keys   []plan.SortKey
	limit  int
	fields expr.Fields
	rows   []Row
	pos    int
}

func buildSort(s *plan.Sort, db source) (iterator, expr.Fields, error) {
	in, fields, err := build(s.Input, db)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range s.Keys {
		if fields.Index(k.Col) < 0 {
			return nil, nil, fmt.Errorf("volcano: sort key %s not in schema", k.Col)
		}
	}
	return &sortIter{in: in, keys: s.Keys, limit: s.Limit, fields: fields}, fields, nil
}

func (it *sortIter) open() error {
	if err := it.in.open(); err != nil {
		return err
	}
	defer it.in.close()
	it.rows = nil
	it.pos = 0
	for {
		row, ok, err := it.in.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.rows = append(it.rows, row)
	}
	idx := make([]int, len(it.keys))
	for i, k := range it.keys {
		idx[i] = it.fields.Index(k.Col)
	}
	// Rows tied on every key order by their columns, left to right,
	// ascending: the order is total, so LIMIT cuts at the same row in every
	// engine.
	slices.SortFunc(it.rows, func(a, b Row) int {
		for i, k := range it.keys {
			if d := cmp.Compare(a[idx[i]], b[idx[i]]); d != 0 {
				if k.Desc {
					return -d
				}
				return d
			}
		}
		return slices.Compare(a, b)
	})
	if it.limit > 0 && len(it.rows) > it.limit {
		it.rows = it.rows[:it.limit]
	}
	return nil
}

func (it *sortIter) next() (Row, bool, error) {
	if it.pos >= len(it.rows) {
		return nil, false, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, true, nil
}

func (it *sortIter) close() {}

// ---------------------------------------------------------------- key packing

// packKey encodes multi-column group keys into a map key.
func packKey(buf []byte, row Row, idx []int) string {
	buf = buf[:0]
	for _, i := range idx {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(row[i]))
	}
	return string(buf)
}
