package sql

import (
	"context"
	"testing"

	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/volcano"
)

// Multi-way join and HAVING frontend tests: the grammar the plan
// synthesizer consumes — FROM lists up to four tables compiled into
// left-deep FK join chains (star and snowflake), and HAVING bound over
// aggregate aliases or fresh aggregate expressions.

// multiwayDB: fact f with FKs into d1 and d2; d1 with an FK into d3
// (snowflake). Small deterministic data so tests can compute expected
// answers with an independent reference loop.
func multiwayDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("f",
		storage.Compress("f_k", []int64{0, 0, 1, 1, 2, 2, 0, 1}, storage.LogInt),
		storage.Compress("f_v", []int64{1, 2, 3, 4, 5, 6, 7, 8}, storage.LogInt),
		storage.Compress("f_d1", []int64{0, 1, 2, 0, 1, 2, 0, 1}, storage.LogInt),
		storage.Compress("f_d2", []int64{1, 1, 0, 0, 1, 0, 1, 0}, storage.LogInt),
	))
	db.AddTable(storage.MustNewTable("d1",
		storage.Compress("d1_pk", []int64{0, 1, 2}, storage.LogInt),
		storage.Compress("d1_v", []int64{10, 20, 30}, storage.LogInt),
		storage.Compress("d1_fk3", []int64{1, 0, 1}, storage.LogInt),
	))
	db.AddTable(storage.MustNewTable("d2",
		storage.Compress("d2_pk", []int64{0, 1}, storage.LogInt),
		storage.Compress("d2_v", []int64{100, 200}, storage.LogInt),
	))
	db.AddTable(storage.MustNewTable("d3",
		storage.Compress("d3_pk", []int64{0, 1}, storage.LogInt),
		storage.Compress("d3_v", []int64{7, 9}, storage.LogInt),
	))
	for _, fk := range [][4]string{
		{"f", "f_d1", "d1", "d1_pk"},
		{"f", "f_d2", "d2", "d2_pk"},
		{"d1", "d1_fk3", "d3", "d3_pk"},
	} {
		if err := db.AddFKIndex(fk[0], fk[1], fk[2], fk[3]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// multiwayRows materializes the fully joined fact rows as
// (f_k, f_v, d1_v, d2_v, d3_v) for reference computations.
func multiwayRows() [][5]int64 {
	fk := []int64{0, 0, 1, 1, 2, 2, 0, 1}
	fv := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	fd1 := []int64{0, 1, 2, 0, 1, 2, 0, 1}
	fd2 := []int64{1, 1, 0, 0, 1, 0, 1, 0}
	d1v := []int64{10, 20, 30}
	d1fk3 := []int64{1, 0, 1}
	d2v := []int64{100, 200}
	d3v := []int64{7, 9}
	out := make([][5]int64, len(fk))
	for i := range fk {
		out[i] = [5]int64{fk[i], fv[i], d1v[fd1[i]], d2v[fd2[i]], d3v[d1fk3[fd1[i]]]}
	}
	return out
}

// TestCompileThreeWayJoinPlan checks the FROM list compiles to a
// left-deep FK join chain: Join(Join(f, d1), d2) under the aggregate.
func TestCompileThreeWayJoinPlan(t *testing.T) {
	db := multiwayDB(t)
	p, err := Compile("select sum(f_v) from f, d1, d2 where f_d1 = d1_pk and f_d2 = d2_pk and d1_v > 10", db)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := p.(*plan.Map)
	if !ok {
		t.Fatalf("root is %T, want *plan.Map", p)
	}
	agg, ok := m.Input.(*plan.Aggregate)
	if !ok {
		t.Fatalf("under Map: %T, want *plan.Aggregate", m.Input)
	}
	outer, ok := agg.Input.(*plan.Join)
	if !ok {
		t.Fatalf("under Aggregate: %T, want *plan.Join", agg.Input)
	}
	inner, ok := outer.Probe.(*plan.Join)
	if !ok {
		t.Fatalf("outer probe: %T, want *plan.Join (left-deep chain)", outer.Probe)
	}
	if s, ok := inner.Probe.(*plan.Scan); !ok || s.Table != "f" {
		t.Errorf("chain root: %T %v, want Scan of f", inner.Probe, inner.Probe)
	}
	builds := map[string]bool{}
	for _, j := range []*plan.Join{inner, outer} {
		s, ok := j.Build.(*plan.Scan)
		if !ok {
			t.Fatalf("build side is %T, want *plan.Scan", j.Build)
		}
		builds[s.Table] = true
	}
	if !builds["d1"] || !builds["d2"] {
		t.Errorf("build tables %v, want d1 and d2", builds)
	}
	// The single-table predicate on d1 pushes to its scan, not a residual.
	for _, j := range []*plan.Join{inner, outer} {
		if s := j.Build.(*plan.Scan); s.Table == "d1" && s.Filter == nil {
			t.Error("d1_v > 10 was not pushed to d1's scan")
		}
	}
}

// TestThreeWayJoinExecution pins a three-way star join against an
// independent reference loop over the joined rows.
func TestThreeWayJoinExecution(t *testing.T) {
	db := multiwayDB(t)
	res := run(t, db, "select sum(f_v + d2_v) from f, d1, d2 where f_d1 = d1_pk and f_d2 = d2_pk and d1_v <= 20")
	want := int64(0)
	for _, r := range multiwayRows() {
		if r[2] <= 20 {
			want += r[1] + r[3]
		}
	}
	if got := res.Rows[0][0]; got != want {
		t.Errorf("three-way join sum = %d, want %d", got, want)
	}
}

// TestSnowflakeJoinExecution joins through d1 into d3 (the FK lives on
// the dimension, not the fact).
func TestSnowflakeJoinExecution(t *testing.T) {
	db := multiwayDB(t)
	res := run(t, db, "select sum(d3_v) from f, d1, d3 where f_d1 = d1_pk and d1_fk3 = d3_pk")
	want := int64(0)
	for _, r := range multiwayRows() {
		want += r[4]
	}
	if got := res.Rows[0][0]; got != want {
		t.Errorf("snowflake join sum = %d, want %d", got, want)
	}
}

// TestFourTableLimit pins the FROM-list bound: four tables compile,
// five do not.
func TestFourTableLimit(t *testing.T) {
	db := multiwayDB(t)
	if _, err := Compile("select sum(f_v) from f, d1, d2, d3 where f_d1 = d1_pk and f_d2 = d2_pk and d1_fk3 = d3_pk", db); err != nil {
		t.Fatalf("four tables should compile: %v", err)
	}
	if _, err := Compile("select sum(f_v) from f, d1, d2, d3, f where f_d1 = d1_pk", db); err == nil {
		t.Fatal("five tables compiled; want an error")
	}
}

// TestHavingCompileAndRun checks HAVING binds over aggregate aliases and
// fresh aggregate expressions, and filters finalized groups.
func TestHavingCompileAndRun(t *testing.T) {
	db := multiwayDB(t)
	p, err := Compile("select f_k, sum(f_v) as s from f group by f_k having s > 9", db)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := p.(*plan.Map).Input.(*plan.Aggregate)
	if !ok || agg.Having == nil {
		t.Fatalf("HAVING not bound on the Aggregate node (%T)", p.(*plan.Map).Input)
	}

	// Reference: group sums are k0=1+2+7=10, k1=3+4+8=15, k2=5+6=11; all
	// pass s > 9, only k1 passes sum(f_v) > 11.
	res := run(t, db, "select f_k, sum(f_v) as s from f group by f_k having s > 9")
	if len(res.Rows) != 3 {
		t.Errorf("having s > 9 kept %d groups, want 3", len(res.Rows))
	}
	res = run(t, db, "select f_k, sum(f_v) as s from f group by f_k having sum(f_v) > 11")
	if len(res.Rows) != 1 || res.Rows[0][0] != 1 || res.Rows[0][1] != 15 {
		t.Errorf("having sum(f_v) > 11 = %v, want [[1 15]]", res.Rows)
	}
	// A HAVING aggregate absent from the SELECT list still evaluates (it
	// rides along as a hidden item): only k0 has 3 rows with count >= 3...
	// k1 also has 3. k2 has 2.
	res = run(t, db, "select f_k, sum(f_v) as s from f group by f_k having count(*) < 3")
	if len(res.Rows) != 1 || res.Rows[0][0] != 2 {
		t.Errorf("having count(*) < 3 = %v, want the two-row group k2", res.Rows)
	}
	// Hidden HAVING aggregates must not leak into the output header.
	if nf := len(res.Fields); nf != 2 {
		t.Errorf("result has %d fields, want 2 (hidden having aggregate leaked)", nf)
	}
}

// TestHavingErrors pins HAVING validation: a HAVING without any
// aggregate in the statement is a frontend error; a HAVING referencing a
// column that is neither a group key nor an aggregate alias fails when
// the plan binds (the HAVING tree evaluates over finalized group rows,
// whose schema is keys plus aggregate aliases).
func TestHavingErrors(t *testing.T) {
	db := multiwayDB(t)
	if _, err := Compile("select f_v from f having f_k > 1", db); err == nil {
		t.Error("HAVING without aggregates compiled; want an error")
	}
	for _, q := range []string{
		"select sum(f_v) from f having f_k > 1",                   // not in the finalized row
		"select f_k, sum(f_v) from f group by f_k having f_v > 1", // non-grouped column
	} {
		p, err := Compile(q, db)
		if err != nil {
			continue // frontend rejection is fine too
		}
		if _, err := volcano.Run(context.Background(), p, db); err == nil {
			t.Errorf("%q executed; want a binding error", q)
		}
	}
}
