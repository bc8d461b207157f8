package swole

// Steady-state benchmarks: the same query executed repeatedly against an
// unchanged database, the workload of ROADMAP.md's serve-many-users north
// star (parameterized dashboards and reports re-issue identical shapes).
// These complement bench_test.go's per-figure sweeps: Fig 8-12 measure a
// cold kernel, these measure the Nth execution of a query, which with the
// plan/statistics cache and recycled execution scratch should replan
// nothing and allocate nothing.
//
// BenchmarkSteadyGroupAgg100K is the steady-state form of Figure 9's
// 100K-group key-masking point (hash table too large for L2, the regime
// where per-query table reallocation hurts most).

import (
	"fmt"
	"testing"
)

// steadyDB memoizes one micro dataset per configuration across benchmarks.
var steadyCache = map[string]*DB{}

func steadyDB(b *testing.B, rows, dimRows, groupKeys int) *DB {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%d", rows, dimRows, groupKeys)
	if d, ok := steadyCache[key]; ok {
		return d
	}
	d, err := LoadMicro(MicroConfig{Rows: rows, DimRows: dimRows, GroupKeys: groupKeys})
	if err != nil {
		b.Fatal(err)
	}
	steadyCache[key] = d
	return d
}

func benchSteady(b *testing.B, db *DB, q string) {
	b.Helper()
	// Warm run: compile, sample, plan, allocate.
	if _, _, err := db.QuerySwole(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := db.QuerySwole(q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int64(res.NumRows())
	}
}

// BenchmarkSteadyScalarAgg repeats a filtered scalar aggregation
// (value-masking regime, the paper's Section II example shape).
func BenchmarkSteadyScalarAgg(b *testing.B) {
	db := steadyDB(b, benchR(), 1000, 1000)
	benchSteady(b, db, "select sum(r_a * r_b) from r where r_x < 50")
}

// BenchmarkSteadyGroupAgg100K repeats a 100K-group aggregation — the
// Figure 9 key-masking point whose per-worker hash tables are the largest
// per-query allocation in the engine.
func BenchmarkSteadyGroupAgg100K(b *testing.B) {
	card := 100_000
	if c := benchR() / 10; c < card {
		card = c
	}
	db := steadyDB(b, benchR(), 1000, card)
	benchSteady(b, db, "select r_c, sum(r_a) from r where r_x < 50 group by r_c")
}

// The BenchmarkSteadyGroupDense rows repeat group-bys whose key domain is
// known and dense, so they aggregate into key-addressed tables: 100 groups
// (an L1-resident record array), 1M groups (8 MB of one-word records — an
// int8 sum over 2M rows packs — cleared and walked every run), and the eager
// groupjoin keyed by a foreign key.

// benchSteadyDense is benchSteady after checking the plan is key-addressed
// over wantDomain keys.
func benchSteadyDense(b *testing.B, db *DB, q string, wantDomain int) {
	b.Helper()
	db.SetWorkers(1)
	defer db.SetWorkers(0)
	if _, ex, err := db.QuerySwole(q); err != nil {
		b.Fatal(err)
	} else if ex.DenseDomain != wantDomain {
		b.Fatalf("DenseDomain=%d, want %d", ex.DenseDomain, wantDomain)
	}
	benchSteady(b, db, q)
}

func BenchmarkSteadyGroupDense100(b *testing.B) {
	db := steadyDB(b, benchR(), 1000, 1000)
	benchSteadyDense(b, db, "select r_a, sum(r_b) from r where r_x < 50 group by r_a", 100)
}

func BenchmarkSteadyGroupDense1M(b *testing.B) {
	db := steadyDB(b, rows1M, 1024, groups1M)
	benchSteadyDense(b, db, "select r_c, sum(r_b) from r where r_x < 50 group by r_c", groups1M)
}

func BenchmarkSteadyGroupJoinDense(b *testing.B) {
	db := steadyDB(b, benchR(), 100_000, 1000)
	benchSteadyDense(b, db, "select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk", 100_000)
}

// BenchmarkSteadySemiJoinAgg repeats a filtered semijoin aggregation
// (positional-bitmap regime, Figure 11).
func BenchmarkSteadySemiJoinAgg(b *testing.B) {
	db := steadyDB(b, benchR(), 100_000, 1000)
	benchSteady(b, db, "select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50")
}

// The BenchmarkSteadySelect rows repeat three of selectForms: multi-key
// packing, disjunctions, HAVING and min/max beside the classic shapes.

// BenchmarkSteadySelectMultiAgg repeats a two-key, three-aggregate group-by
// (the TPC-H Q1 form: masked lanes over a packed composite key).
func BenchmarkSteadySelectMultiAgg(b *testing.B) {
	db := steadyDB(b, benchR(), 1000, 1000)
	benchSteady(b, db, selectForms[0].q)
}

// BenchmarkSteadySelectOrHaving repeats a three-term disjunction with
// HAVING (term-at-a-time bitmap, selection-vector row stage).
func BenchmarkSteadySelectOrHaving(b *testing.B) {
	db := steadyDB(b, benchR(), 1000, 1000)
	benchSteady(b, db, selectForms[1].q)
}

// BenchmarkSteadySelectJoinMinMax repeats a scalar min/max/count over a
// filtered join edge (positional bitmap, masked reductions).
func BenchmarkSteadySelectJoinMinMax(b *testing.B) {
	db := steadyDB(b, benchR(), 1000, 1000)
	benchSteady(b, db, selectForms[6].q)
}

// steadyStmt is a statement the steady-state benchmarks time and
// TestQuerySwoleSteadyZeroAlloc gates, under its sub-benchmark id.
type steadyStmt struct{ id, q string }

// microClassicStatements are the benchmark's 15 micro_classic statements
// (benchmark/stmts.go, in workload order).
var microClassicStatements = func() (out []steadyStmt) {
	for _, sel := range []int{5, 50, 95} {
		for _, s := range []steadyStmt{
			{"scalar", "select sum(r_a * r_b) as s from r where r_x < %d and r_y = 1"},
			{"group_r_a", "select r_a, sum(r_b) as s from r where r_x < %d group by r_a"},
			{"semijoin", "select sum(r_a) as s from r, s where r_fk = s_pk and s_x < %d and r_x < 50"},
			{"group_r_c", "select r_c, sum(r_b) as s from r where r_x < %d group by r_c"},
			{"groupjoin", "select r_fk, sum(r_a) as s from r, s where r_fk = s_pk and s_x < %d group by r_fk"},
		} {
			out = append(out, steadyStmt{fmt.Sprintf("%s.s%02d", s.id, sel), fmt.Sprintf(s.q, sel)})
		}
	}
	return out
}()

// BenchmarkSteadyMicroClassic repeats each of microClassicStatements at the
// workload's shape — R = 2M, S = 100K, 1M keys of r_c, one worker — one
// sub-benchmark per statement id: the per-statement timings a change to the
// classic shapes cites.
func BenchmarkSteadyMicroClassic(b *testing.B) {
	db := steadyDB(b, 2_000_000, 100_000, 1_000_000)
	db.SetWorkers(1)
	defer db.SetWorkers(0)
	for _, s := range microClassicStatements {
		b.Run(s.id, func(b *testing.B) { benchSteady(b, db, s.q) })
	}
}

// footprintStatements are the fused folds' record shapes — one sum, three
// sums, a min and a max — grouped by r_a (101 keys, a group table under
// core's 1 MB fuse bound) and by r_c (1M keys, over it) at 95 % selectivity.
var footprintStatements = func() (out []steadyStmt) {
	for _, key := range []string{"r_a", "r_c"} {
		for _, s := range []struct{ id, aggs string }{
			{"sum1", "sum(r_b) as s"},
			{"sum3", "sum(r_a) as s, sum(r_b) as t, sum(r_y) as u"},
			{"minmax", "min(r_b) as lo, max(r_b) as hi"},
		} {
			out = append(out, steadyStmt{s.id + "_" + key, fmt.Sprintf("select %s, %s from r where r_x < 95 group by %s", key, s.aggs, key)})
		}
	}
	return out
}()

// BenchmarkSteadyFootprint repeats each of footprintStatements at
// BenchmarkSteadyMicroClassic's shape: the statements on each side of the
// footprint rule that picks a fused fold or the lane passes.
func BenchmarkSteadyFootprint(b *testing.B) {
	db := steadyDB(b, 2_000_000, 100_000, 1_000_000)
	db.SetWorkers(1)
	defer db.SetWorkers(0)
	for _, s := range footprintStatements {
		b.Run(s.id, func(b *testing.B) { benchSteady(b, db, s.q) })
	}
}

// tpchStatements are the benchmark's eight tpch_generic statements
// (benchmark/workloads.go, in workload order) with the literals the workload
// draws fixed at one value.
var tpchStatements = []steadyStmt{
	{"q1_multiagg", "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_price, count(*) as n " +
		"from lineitem where l_shipdate <= date '1998-09-05' group by l_returnflag, l_linestatus"},
	{"or3_having", "select l_shipmode, sum(l_quantity) as q, count(*) as n from lineitem " +
		"where l_quantity < 5 or l_discount > 0.08 or l_shipdate < date '1993-01-05' group by l_shipmode having count(*) > 150"},
	{"not_scalar", "select count(*) as n, sum(l_extendedprice) as s from lineitem " +
		"where not (l_quantity between 10 and 40) and l_tax < 0.05 and l_shipdate >= date '1992-01-05'"},
	{"join2_group", "select p_brand, sum(l_quantity) as q, count(*) as n from lineitem, orders, part " +
		"where l_orderkey = o_orderkey and l_partkey = p_partkey and o_orderdate < date '1995-01-05' and p_size < 20 group by p_brand"},
	{"snowflake3", "select n_name, sum(l_extendedprice) as rev, count(*) as n from lineitem, orders, customer, nation " +
		"where l_orderkey = o_orderkey and o_custkey = c_custkey and c_nationkey = n_nationkey " +
		"and o_orderdate >= date '1994-01-05' and l_quantity < 30 group by n_name"},
	{"minmax_group", "select l_shipmode, min(l_extendedprice) as lo, max(l_extendedprice) as hi from lineitem " +
		"where l_quantity > 25 and l_shipdate >= date '1992-01-05' group by l_shipmode"},
	{"join_minmax", "select min(l_shipdate) as lo, max(l_shipdate) as hi, count(*) as n from lineitem, supplier " +
		"where l_suppkey = s_suppkey and s_nationkey < 10 and l_shipdate >= date '1992-01-05'"},
	{"or3_join_having", "select o_orderpriority, sum(l_quantity) as q, max(l_discount) as d from lineitem, orders " +
		"where l_orderkey = o_orderkey and (l_shipmode = 'AIR' or l_shipmode = 'RAIL' or l_quantity > 45) " +
		"group by o_orderpriority having sum(l_quantity) > 1500"},
}

// BenchmarkSteadyTPCH repeats each of tpchStatements at the workload's shape —
// TPC-H SF 0.2, one worker — one sub-benchmark per statement id: the
// per-statement timings a change to the tile pipeline cites.
func BenchmarkSteadyTPCH(b *testing.B) {
	db, ok := steadyCache["tpch"]
	if !ok {
		db = LoadTPCH(0.2)
		steadyCache["tpch"] = db
	}
	db.SetWorkers(1)
	defer db.SetWorkers(0)
	for _, s := range tpchStatements {
		b.Run(s.id, func(b *testing.B) { benchSteady(b, db, s.q) })
	}
}
