// Package swole is an access-aware in-memory OLAP query engine, a faithful
// open-source reproduction of "Getting Swole: Generating Access-Aware Code
// with Predicate Pullups" (Crotty, Galakatos, Kraska; ICDE 2020).
//
// SWOLE inverts the oldest heuristic in query optimization: instead of
// pushing predicates down to filter early, it pulls them up and masks,
// converting conditional and random data accesses into sequential ones at
// the cost of bounded wasted work. The package offers:
//
//   - a column store with dictionary encoding, null suppression and
//     fixed-point decimals (Table, IntColumn, StringColumn, ...)
//   - a SQL frontend (Query) executed on an interpreted engine, and a
//     SWOLE executor (QuerySwole) that recognizes the paper's operator
//     shapes, consults the cost models, and applies value masking, key
//     masking, access merging, positional bitmaps, or eager aggregation
//   - a write path that never blocks readers: CreateTable, ReplaceRows,
//     AppendRows and AppendCSV each register a replacement table, with the
//     foreign-key indexes naming it rebuilt or extended in the same step
//   - the code generator (GenerateCode) that emits the Go source each
//     strategy would produce
//   - built-in workloads (LoadTPCH, LoadMicro) reproducing the paper's
//     evaluation
//
// See README.md for a walkthrough and DESIGN.md for the system inventory.
package swole

import (
	"context"
	"fmt"
	"sync"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ingest"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/volcano"
)

// DB is an in-memory column-store database.
//
// A DB is safe for concurrent queries: Query, QuerySwole, and
// QueryContext may be called from any number of goroutines. Executions
// of one statement serialize on that statement's own lock (its result
// buffers are per-entry), and its compile runs under the same lock, so
// callers that meet a new or stale statement together share one compile;
// different statements proceed in parallel down to the engine locks below. Note that the *Result
// returned by QuerySwole aliases cache-owned buffers and is only safe to
// read until the same statement runs again; concurrent callers should
// use QueryContext, which returns a private copy. Engine reconfiguration
// (SetWorkers) and the writes (CreateTable, AddForeignKey, ReplaceRows,
// AppendRows, AppendCSV) may run concurrently with queries: a writer
// registers a replacement table and never blocks a reader — in-flight
// scans finish on the immutable arrays they started on (see replace.go).
type DB struct {
	db     *storage.Database
	engine *core.Engine

	// Plan cache (querycache.go): SWOLE statements keyed by their text,
	// invalidated by table object. mu guards only the map; each entry is
	// compiled and run under its own lock.
	mu    sync.RWMutex
	plans map[string]*cachedPlan

	// writeMu serializes the writes: each holds it from its first catalog
	// read to its registration, so a write builds on the registration it
	// read. Lock order: writeMu → d.mu, and a cache entry's lock → d.mu;
	// engine mutexes are leaves. It also
	// guards kernels, the per-table compiled CSV kernels (append.go), reused
	// across batches so the warm parse path allocates nothing.
	writeMu sync.Mutex
	kernels map[string]*ingest.Kernel
}

// NewDB returns an empty database.
func NewDB() *DB {
	return newDBWith(storage.NewDatabase())
}

// newDBWith wraps an existing storage database (built-in dataset
// generators use this).
func newDBWith(db *storage.Database) *DB {
	return &DB{
		db:      db,
		engine:  core.NewEngine(db),
		plans:   map[string]*cachedPlan{},
		kernels: map[string]*ingest.Kernel{},
	}
}

// Column is a column under construction; create with IntColumn,
// DecimalColumn, DateColumn, or StringColumn.
type Column struct {
	col *storage.Column
	err error
}

// IntColumn builds an integer column, choosing the narrowest physical
// width that holds the values (null suppression).
func IntColumn(name string, vals []int64) Column {
	return Column{col: storage.Compress(name, vals, storage.LogInt)}
}

// DecimalColumn builds a fixed-point decimal column; values are scaled by
// 100 (two fractional digits), e.g. 1.50 is stored as 150.
func DecimalColumn(name string, scaledVals []int64) Column {
	return Column{col: storage.Compress(name, scaledVals, storage.LogDecimal)}
}

// DateColumn builds a date column from "YYYY-MM-DD" strings.
func DateColumn(name string, dates []string) Column {
	vals := make([]int64, len(dates))
	for i, s := range dates {
		d, err := storage.ParseDate(s)
		if err != nil {
			return Column{err: err}
		}
		vals[i] = int64(d)
	}
	return Column{col: storage.Compress(name, vals, storage.LogDate)}
}

// StringColumn builds a dictionary-encoded string column.
func StringColumn(name string, vals []string) Column {
	return Column{col: storage.NewStrings(name, vals)}
}

// CreateTable registers a table with the given columns, which must share
// one length, replacing any table of that name. Replacing a table rebuilds
// the foreign-key indexes that name it; if one of its foreign keys no
// longer holds, CreateTable fails and changes nothing.
func (d *DB) CreateTable(name string, cols ...Column) error {
	t, err := newTable(name, cols)
	if err != nil {
		return err
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.replaceTable(d.db.Catalog(), t)
}

// newTable builds a table from columns under construction.
func newTable(name string, cols []Column) (*storage.Table, error) {
	sc := make([]*storage.Column, len(cols))
	for i, c := range cols {
		if c.err != nil {
			return nil, c.err
		}
		if c.col == nil {
			return nil, fmt.Errorf("swole: column %d of table %s is uninitialized", i, name)
		}
		sc[i] = c.col
	}
	return storage.NewTable(name, sc...)
}

// AddForeignKey declares and verifies a foreign key from child.fk to
// parent.pk, building the positional index SWOLE's bitmap joins use.
func (d *DB) AddForeignKey(child, fk, parent, pk string) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.db.AddFKIndex(child, fk, parent, pk)
}

// Result is a materialized query answer: a header and the values row-major
// in one flat array, the layout the plans emit and /query encodes from.
type Result struct {
	fields expr.Fields
	cols   []string // fields' names, shared by every copy of the header
	flat   []int64  // row i is flat[i*len(cols) : (i+1)*len(cols)]
}

// newResult builds a header over an empty answer.
func newResult(fields expr.Fields) Result {
	cols := make([]string, len(fields))
	for i, f := range fields {
		cols[i] = f.Name
	}
	return Result{fields: fields, cols: cols}
}

// resultOf flattens an interpreted answer.
func resultOf(v *volcano.Result) *Result {
	r := newResult(v.Fields)
	r.flat = make([]int64, 0, len(v.Rows)*len(r.cols))
	for _, row := range v.Rows {
		r.flat = append(r.flat, row...)
	}
	return &r
}

// Columns returns the output column names.
func (r *Result) Columns() []string { return append([]string{}, r.cols...) }

// Rows returns the raw int64 rows (dictionary codes, day numbers, and
// fixed-point values unrendered) as headers into the result's flat array.
func (r *Result) Rows() [][]int64 {
	w := len(r.cols)
	out := make([][]int64, r.NumRows())
	for i := range out {
		out[i] = r.flat[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// NumRows returns the row count.
func (r *Result) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.flat) / len(r.cols)
}

// String renders the result as a table, decoding strings, dates and
// decimals.
func (r *Result) String() string { return r.StringLimit(0) }

// StringLimit renders at most n rows.
func (r *Result) StringLimit(n int) string {
	return (&volcano.Result{Fields: r.fields, Rows: r.Rows()}).Format(n)
}

// Query parses and executes a SQL statement on the interpreted reference
// engine (predicate pushdown, tuple at a time). Use QuerySwole for the
// access-aware executor.
func (d *DB) Query(q string) (*Result, error) {
	p, err := sql.Compile(q, d.db)
	if err != nil {
		return nil, err
	}
	res, err := volcano.Run(context.Background(), p, d.db)
	if err != nil {
		return nil, err
	}
	return resultOf(res), nil
}

// ExplainPlan returns the logical plan of a SQL statement.
func (d *DB) ExplainPlan(q string) (string, error) {
	p, err := sql.Compile(q, d.db)
	if err != nil {
		return "", err
	}
	return plan.Format(p), nil
}

// plan compiles a SQL statement to its logical plan node.
func (d *DB) plan(q string) (plan.Node, error) {
	return sql.Compile(q, d.db)
}
