package swole

// The sparse-key benchmark: a 1M-group aggregation whose key no key-addressed
// table may cover, so it folds into one hashed table on one worker and sorts
// its groups on the way out. TestQuerySwoleSteadyZeroAlloc gates the same
// statement at test scale. EXPERIMENTS.md ("One executor") sets its time
// beside a radix-partitioned plan's, the price a partitioned technique would
// be weighed against.

import "testing"

// The 1M-group dataset: 2^21 rows over 2^20 keys.
const (
	rows1M   = 2_097_152
	groups1M = 1_048_576
)

// sparseKeyQuery groups by the sparse key addSparseKey adds.
const sparseKeyQuery = "select sp_k, sum(sp_a) from sp where sp_x < 50 group by sp_k"

// sparseKeyDB is the micro dataset of rows and groups with addSparseKey's sp.
func sparseKeyDB(b *testing.B, rows, groups int) *DB {
	b.Helper()
	d := steadyDB(b, rows, 1024, groups)
	addSparseKey(b, d)
	return d
}

// addSparseKey adds sp to a micro dataset, unless it has one: a copy of r's
// aggregation columns under a sparse key, sp_k = 4096·r_c + r_c%7, which
// holds as many groups as r_c in a range 4096 times as wide — at 100 groups
// or a million, one no key-addressed table may cover, packed records and all.
func addSparseKey(tb testing.TB, d *DB) {
	tb.Helper()
	if d.db.Table("sp") != nil {
		return
	}
	r := d.db.MustTable("r")
	wide := func(name string) []int64 {
		v := make([]int64, r.Rows())
		r.MustColumn(name).WidenInto(0, r.Rows(), v)
		return v
	}
	k := wide("r_c")
	for i, c := range k {
		k[i] = 4096*c + c%7
	}
	if err := d.CreateTable("sp", IntColumn("sp_k", k), IntColumn("sp_x", wide("r_x")), IntColumn("sp_a", wide("r_a"))); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSteadyGroupSparse1M repeats the sparse-key group-by at 1M groups:
// one hashed table, one worker, whatever the worker count asked for.
func BenchmarkSteadyGroupSparse1M(b *testing.B) {
	d := sparseKeyDB(b, rows1M, groups1M)
	_, ex, err := d.QuerySwole(sparseKeyQuery)
	if err != nil {
		b.Fatal(err)
	}
	if ex.DenseDomain != 0 {
		b.Fatalf("DenseDomain=%d, want the hashed table", ex.DenseDomain)
	}
	benchSteady(b, d, sparseKeyQuery)
}
