package swole

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
)

// denseTestDB is a fact table f whose key columns land on each side of the
// table-form rule, and a dimension d it references:
//
//	f_tag   string, 7 values      dictionary codes            → key-addressed
//	f_k8    [-3, 90]              an 8-bit column             → key-addressed
//	f_neg   [-5000, -4000]        negative origin             → key-addressed
//	f_wide  [0, 1M), ~unique      a record array four times
//	                              the hashed table            → hashed
//	f_full  spans all of int64    does not pack               → interpreter
//	f_sp    50 keys 10^7 apart    few groups, a 490M range    → hashed
//	f_fk    [0, 2000) into d_pk   dense primary key           → key-addressed
func denseTestDB(t testing.TB) *DB {
	t.Helper()
	const rows, dims = 40_000, 2000
	r := rand.New(rand.NewSource(11))
	ints := func(n int, f func(i int) int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	tags := []string{"air", "fob", "mail", "rail", "reg", "ship", "truck"}
	full := []int64{math.MinInt64 + 1, -1, 0, 7, math.MaxInt64}
	tag := make([]string, rows)
	for i := range tag {
		tag[i] = tags[r.Intn(len(tags))]
	}
	d := NewDB()
	if err := d.CreateTable("d",
		IntColumn("d_pk", ints(dims, func(i int) int64 { return int64(i) })),
		IntColumn("d_x", ints(dims, func(int) int64 { return r.Int63n(100) })),
	); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("f",
		StringColumn("f_tag", tag),
		IntColumn("f_k8", ints(rows, func(int) int64 { return r.Int63n(94) - 3 })),
		IntColumn("f_neg", ints(rows, func(int) int64 { return -5000 + r.Int63n(1001) })),
		IntColumn("f_wide", ints(rows, func(int) int64 { return r.Int63n(1_000_000) })),
		IntColumn("f_full", ints(rows, func(int) int64 { return full[r.Intn(len(full))] })),
		IntColumn("f_sp", ints(rows, func(int) int64 { return 10_000_019 * r.Int63n(50) })),
		IntColumn("f_fk", ints(rows, func(int) int64 { return r.Int63n(dims) })),
		IntColumn("f_x", ints(rows, func(int) int64 { return r.Int63n(100) })),
		IntColumn("f_v", ints(rows, func(int) int64 { return r.Int63n(200) - 50 })),
	); err != nil {
		t.Fatal(err)
	}
	if err := d.AddForeignKey("f", "f_fk", "d", "d_pk"); err != nil {
		t.Fatal(err)
	}
	return d
}

// denseStatements name, per statement, whether its group table is
// key-addressed. %d is the selectivity of the f_x (or d_x) predicate in
// percent. The classic group-by's answer is its table's own (key, sum)
// pairs unless a HAVING or a projection other than the key and the
// aggregate under their own names asks for the general emission.
var denseStatements = []struct {
	name  string
	dense bool
	q     string
}{
	{"dict key", true, "select f_tag, sum(f_v) from f where f_x < %d group by f_tag"},
	{"int8 key", true, "select f_k8, sum(f_v) from f where f_x < %d group by f_k8"},
	{"negative origin", true, "select f_neg, sum(f_v) from f where f_x < %d group by f_neg"},
	{"1M-wide sparse key", false, "select f_wide, sum(f_v) from f where f_x < %d group by f_wide"},
	{"sparse key, few groups", false, "select f_sp, sum(f_v) from f where f_x < %d group by f_sp"},
	{"count(*)", true, "select f_k8, count(*) as n from f where f_x < %d group by f_k8"},
	{"reordered, aliased projection", true, "select sum(f_v) as s, f_neg as k from f where f_x < %d group by f_neg"},
	{"FK groupjoin", true, "select f_fk, sum(f_v) from f, d where f_fk = d_pk and d_x < %d group by f_fk"},
	{"two-key packed", true, "select f_k8, f_neg, sum(f_v) as s, count(*) as n from f where f_x < %d group by f_k8, f_neg"},
	{"generic dict min/max", true, "select f_tag, min(f_v) as lo, max(f_v) as hi, count(*) as n from f where f_x < %d group by f_tag having count(*) > 0"},
	{"generic over a join", true, "select d_x, sum(f_v) as s, count(*) as n from f, d where f_fk = d_pk and f_x < %d group by d_x"},
	{"generic 1M-wide sparse key", false, "select f_wide, sum(f_v) as s, count(*) as n from f where f_x < %d group by f_wide"},
}

// TestDenseGroupParityUnpacked: keys that do not pack into 63 bits — a full
// int64 range alone or under a narrow key — have no compiled plan, and
// answer on the interpreter at every worker count.
func TestDenseGroupParityUnpacked(t *testing.T) {
	d := denseTestDB(t)
	defer d.Close()
	for _, q := range []string{
		"select f_full, sum(f_v) from f where f_x < %d group by f_full",
		"select f_full, f_k8, sum(f_v) as s, count(*) as n from f where f_x < %d group by f_full, f_k8",
	} {
		for _, workers := range []int{1, 2} {
			d.SetWorkers(workers)
			checkFallback(t, d, fmt.Sprintf(q, 60))
		}
	}
}

// TestDenseGroupParity: every statement, on each side of the form rule,
// under the cost model's technique and every technique it can be forced
// onto, at 1, 2 and 4 workers, at a selectivity that leaves many groups reached only by rejected tuples
// and one that does not, answers exactly as the interpreter does — in key
// order — and reports the table form the rule predicts.
func TestDenseGroupParity(t *testing.T) {
	d := denseTestDB(t)
	defer d.Close()
	ctx := context.Background()
	sels := []int{2, 60}
	if testing.Short() {
		sels = []int{2}
	}
	for _, tc := range denseStatements {
		for _, sel := range sels {
			q := fmt.Sprintf(tc.q, sel)
			base, err := d.Query(q)
			if err != nil {
				t.Fatalf("%s: volcano: %v", tc.name, err)
			}
			spec := synthesized(t, d, q)
			// Groups come in key order, whichever column the key is projected to.
			key := slices.IndexFunc(spec.Project, func(p core.SelectProj) bool {
				c, ok := p.Expr.(*expr.Col)
				return ok && c.Name == spec.GroupBy[0]
			})
			want := sortedRows(base.Rows())
			slices.SortStableFunc(want, func(a, b []int64) int { return cmp.Compare(a[key], b[key]) })
			if len(want) == 0 {
				t.Fatalf("%s: empty answer proves nothing", tc.name)
			}
			for _, workers := range []int{1, 2, 4} {
				d.SetWorkers(workers)
				tag := fmt.Sprintf("%s sel=%d workers=%d", tc.name, sel, workers)

				// The cost model's technique, cold then plan-cached.
				for rep := 0; rep < 2; rep++ {
					res, ex, err := d.QuerySwole(q)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if got := res.Rows(); !rowsEqual(got, want) {
						t.Fatalf("%s rep %d (%s): rows differ from the interpreter's, or are out of key order\nvolcano: %.200v\nswole:   %.200v",
							tag, rep, ex.Technique, want, got)
					}
					if (ex.DenseDomain > 0) != tc.dense {
						t.Errorf("%s: DenseDomain=%d, want key-addressed=%v", tag, ex.DenseDomain, tc.dense)
					}
					if _, priced := ex.Costs["dense"]; priced != tc.dense {
						t.Errorf("%s: Costs carries a dense alternative = %v", tag, priced)
					}
				}

				// Every technique the statement can be forced onto.
				for _, tech := range d.engine.Techniques(spec) {
					forced, err := d.engine.PrepareForced(synthesized(t, d, q), tech)
					if err != nil {
						t.Fatalf("%s forced %s: %v", tag, tech, err)
					}
					for rep := 0; rep < 2; rep++ {
						res, ex, err := forced.RunContext(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if got := forcedRows(forced, res); !rowsEqual(got, want) {
							t.Fatalf("%s forced %s rep %d:\nvolcano: %.200v\nswole:   %.200v", tag, tech, rep, want, got)
						}
						if (ex.DenseDomain > 0) != tc.dense {
							t.Errorf("%s forced %s: DenseDomain=%d, want key-addressed=%v", tag, tech, ex.DenseDomain, tc.dense)
						}
					}
				}
			}
		}
	}
}

// TestDenseDomainOnBenchmarkStatements: at one worker, every grouped
// statement of the benchmark's micro_classic and tpch_generic workloads
// (benchmark/workloads.go, at test scale) aggregates into a key-addressed
// table, and their full-range and sparse counterparts do not.
func TestDenseDomainOnBenchmarkStatements(t *testing.T) {
	micro, err := LoadMicro(MicroConfig{Rows: 200_000, DimRows: 10_000, GroupKeys: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer micro.Close()
	tpch := LoadTPCH(0.01)
	defer tpch.Close()
	type stmt struct {
		db *DB
		q  string
	}
	var stmts []stmt
	for _, sel := range []int{5, 50, 95} {
		for _, key := range []string{"r_a", "r_c"} {
			stmts = append(stmts, stmt{micro, fmt.Sprintf("select %s, sum(r_b) as s from r where r_x < %d group by %s", key, sel, key)})
		}
		stmts = append(stmts, stmt{micro, fmt.Sprintf("select r_fk, sum(r_a) as s from r, s where r_fk = s_pk and s_x < %d group by r_fk", sel)})
	}
	for _, q := range []string{
		"select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_price, count(*) as n " +
			"from lineitem where l_shipdate <= date '1998-09-01' group by l_returnflag, l_linestatus",
		"select l_shipmode, sum(l_quantity) as q, count(*) as n from lineitem " +
			"where l_quantity < 5 or l_discount > 0.08 or l_shipdate < date '1993-01-01' group by l_shipmode having count(*) > 10",
		"select p_brand, sum(l_quantity) as q, count(*) as n from lineitem, orders, part " +
			"where l_orderkey = o_orderkey and l_partkey = p_partkey and o_orderdate < date '1995-01-01' and p_size < 20 group by p_brand",
		"select n_name, sum(l_extendedprice) as rev, count(*) as n from lineitem, orders, customer, nation " +
			"where l_orderkey = o_orderkey and o_custkey = c_custkey and c_nationkey = n_nationkey " +
			"and o_orderdate >= date '1994-01-01' and l_quantity < 30 group by n_name",
		"select l_shipmode, min(l_extendedprice) as lo, max(l_extendedprice) as hi from lineitem " +
			"where l_quantity > 25 and l_shipdate >= date '1992-01-01' group by l_shipmode",
		"select o_orderpriority, sum(l_quantity) as q, max(l_discount) as d from lineitem, orders " +
			"where l_orderkey = o_orderkey and (l_shipmode = 'AIR' or l_shipmode = 'RAIL' or l_quantity > 45) " +
			"group by o_orderpriority having sum(l_quantity) > 100",
	} {
		stmts = append(stmts, stmt{tpch, q})
	}
	micro.SetWorkers(1)
	tpch.SetWorkers(1)
	for _, s := range stmts {
		for rep := 0; rep < 2; rep++ {
			_, ex, err := s.db.QuerySwole(s.q)
			if err != nil {
				t.Fatalf("%s: %v", s.q, err)
			}
			if ex.DenseDomain == 0 {
				t.Errorf("rep %d: DenseDomain=0 (costs %v) for %s", rep, ex.Costs, s.q)
			}
			if !strings.Contains(fmt.Sprint(ex.Costs), "dense") || !strings.Contains(fmt.Sprint(ex.Costs), "hashed") {
				t.Errorf("Costs %v lacks the priced table forms for %s", ex.Costs, s.q)
			}
		}
	}
}

// TestDenseRangeFollowsWrites: a key-addressed plan bakes the key range of
// the column object it was compiled against. Every write that widens the
// range — AppendRows above it, AppendCSV below it, a ReplaceRows far past
// it — makes the next run recompile against the new range, and every write
// to the groupjoin's child, a row referencing a parent key no row referenced
// before among them, recompiles the groupjoin; each answers exactly as the
// interpreter does, while a concurrent reader keeps querying.
func TestDenseRangeFollowsWrites(t *testing.T) {
	const parents, rows = 1000, 8000
	r := rand.New(rand.NewSource(5))
	col := func(n int, f func(int) int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("p",
		IntColumn("p_pk", col(parents, func(i int) int64 { return int64(i) })),
		IntColumn("p_x", col(parents, func(int) int64 { return r.Int63n(100) })),
	); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("c",
		IntColumn("c_k", col(rows, func(int) int64 { return 10 + r.Int63n(40) })),
		IntColumn("c_fk", col(rows, func(int) int64 { return r.Int63n(100) })), // only the first 100 parents
		IntColumn("c_v", col(rows, func(int) int64 { return r.Int63n(50) })),
	); err != nil {
		t.Fatal(err)
	}
	if err := d.AddForeignKey("c", "c_fk", "p", "p_pk"); err != nil {
		t.Fatal(err)
	}
	d.SetWorkers(2)
	// The groupjoin aggregates eagerly, over the parent's 1,000 positions:
	// writes to the child leave its domain alone.
	queries := []string{
		"select c_k, sum(c_v) from c group by c_k",
		"select c_k, sum(c_v) as s, count(*) as n from c group by c_k",
		"select c_fk, sum(c_v) from c, p where c_fk = p_pk and p_x < 60 group by c_fk",
	}
	check := func(step string, wantDomain ...int) {
		t.Helper()
		for i, q := range queries {
			base, err := d.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				// QueryContext: the reader runs the same cached statements, and
				// only its results are private copies.
				res, ex, err := d.QueryContext(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				// The reader may have recompiled the first two already; the
				// groupjoin is this goroutine's alone.
				if i == 2 && ex.PlanCached != (rep == 1) {
					t.Errorf("%s rep %d: PlanCached=%v for %s: a write must evict the plan its range came from", step, rep, ex.PlanCached, q)
				}
				if ex.DenseDomain != wantDomain[i] {
					t.Errorf("%s: DenseDomain=%d, want %d for %s", step, ex.DenseDomain, wantDomain[i], q)
				}
				if !rowsEqual(res.Rows(), sortedRows(base.Rows())) {
					t.Fatalf("%s rep %d: %s differs from the interpreter", step, rep, q)
				}
			}
		}
	}

	// The reader: totals only ever grow while the writer appends, and every
	// run must come back whole — no error, no out-of-range write.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range queries[:2] {
				res, _, err := d.QueryContext(context.Background(), q)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.NumRows() < 40 {
					t.Errorf("reader: %d groups, want at least the 40 initial keys", res.NumRows())
					return
				}
			}
		}
	}()

	check("initial", 40, 40, 1000)

	if err := d.AppendRows("c", [][]int64{{75, 3, 1}, {12, 4, 2}}); err != nil {
		t.Fatal(err)
	}
	check("AppendRows above the range", 66, 66, 1000)

	if _, err := d.AppendCSV("c", []byte("-20,5,7\n30,6,1\n"), IngestStrict); err != nil {
		t.Fatal(err)
	}
	check("AppendCSV below the range", 96, 96, 1000)

	if err := d.AppendRows("c", [][]int64{{30, 900, 9}}); err != nil {
		t.Fatal(err)
	}
	check("AppendRows referencing a new parent", 96, 96, 1000)

	if err := d.ReplaceRows("c", 2002, 4003,
		IntColumn("c_k", []int64{5000, 11, 13}), IntColumn("c_fk", []int64{999, 0, 1}), IntColumn("c_v", []int64{1, 2, 3}),
	); err != nil {
		t.Fatal(err)
	}
	check("ReplaceRows far past the range", 5021, 5021, 1000)

	close(stop)
	wg.Wait()
}
