package sql

import (
	"context"
	"testing"

	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/volcano"
)

func testDB(t testing.TB) *storage.Database {
	t.Helper()
	n := 1000
	x := make([]int64, n)
	a := make([]int64, n)
	c := make([]int64, n)
	fk := make([]int64, n)
	s := make([]string, n)
	words := []string{"red apple", "green pear", "red plum"}
	rng := uint64(17)
	next := func(m int) int64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return int64((z ^ (z >> 27)) % uint64(m))
	}
	for i := 0; i < n; i++ {
		x[i] = next(100)
		a[i] = next(50)
		c[i] = next(5)
		fk[i] = next(20)
		s[i] = words[next(3)]
	}
	pk := make([]int64, 20)
	sx := make([]int64, 20)
	for i := range pk {
		pk[i] = int64(i)
		sx[i] = next(100)
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("r",
		storage.Compress("r_x", x, storage.LogInt),
		storage.Compress("r_a", a, storage.LogInt),
		storage.Compress("r_c", c, storage.LogInt),
		storage.Compress("r_fk", fk, storage.LogInt),
		storage.NewStrings("r_s", s),
	))
	db.AddTable(storage.MustNewTable("dim",
		storage.Compress("d_pk", pk, storage.LogInt),
		storage.Compress("d_x", sx, storage.LogInt),
	))
	if err := db.AddFKIndex("r", "r_fk", "dim", "d_pk"); err != nil {
		t.Fatal(err)
	}
	return db
}

func run(t *testing.T, db *storage.Database, q string) *volcano.Result {
	t.Helper()
	p, err := Compile(q, db)
	if err != nil {
		t.Fatalf("Compile(%q): %v", q, err)
	}
	res, err := volcano.Run(context.Background(), p, db)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return res
}

func TestScalarAggregate(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select sum(r_a), count(*) from r where r_x < 13")
	if len(res.Rows) != 1 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	r := db.MustTable("r")
	var sum, cnt int64
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < 13 {
			sum += r.MustColumn("r_a").Get(i)
			cnt++
		}
	}
	if res.Rows[0][0] != sum || res.Rows[0][1] != cnt {
		t.Errorf("got %v, want sum=%d cnt=%d", res.Rows[0], sum, cnt)
	}
}

func TestGroupByOrderLimit(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select r_c, sum(r_a) as total from r group by r_c order by total desc, r_c limit 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	if res.Fields.Index("r_c") != 0 || res.Fields.Index("total") != 1 {
		t.Errorf("fields: %v", res.Fields)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1] > res.Rows[i-1][1] {
			t.Error("not sorted by total desc")
		}
	}
}

func TestSelectOrderMismatchedFromGroupBy(t *testing.T) {
	db := testDB(t)
	// Aggregate listed before the group key: the Map must reorder.
	res := run(t, db, "select sum(r_a) as s, r_c from r group by r_c")
	if res.Fields.Index("s") != 0 || res.Fields.Index("r_c") != 1 {
		t.Errorf("fields: %v", res.Fields)
	}
}

func TestWhereVarieties(t *testing.T) {
	db := testDB(t)
	r := db.MustTable("r")
	refCount := func(pred func(i int) bool) int64 {
		var c int64
		for i := 0; i < r.Rows(); i++ {
			if pred(i) {
				c++
			}
		}
		return c
	}
	xc := r.MustColumn("r_x")
	sc := r.MustColumn("r_s")

	cases := []struct {
		q    string
		want int64
	}{
		{"select count(*) from r where r_x between 10 and 20",
			refCount(func(i int) bool { v := xc.Get(i); return v >= 10 && v <= 20 })},
		{"select count(*) from r where r_x in (1, 2, 3)",
			refCount(func(i int) bool { v := xc.Get(i); return v == 1 || v == 2 || v == 3 })},
		{"select count(*) from r where r_s like 'red%'",
			refCount(func(i int) bool { s := sc.GetString(i); return len(s) >= 3 && s[:3] == "red" })},
		{"select count(*) from r where r_s not like '%pear'",
			refCount(func(i int) bool { s := sc.GetString(i); return len(s) < 4 || s[len(s)-4:] != "pear" })},
		{"select count(*) from r where not (r_x < 50)",
			refCount(func(i int) bool { return xc.Get(i) >= 50 })},
		{"select count(*) from r where r_x < 10 or r_x > 90",
			refCount(func(i int) bool { v := xc.Get(i); return v < 10 || v > 90 })},
		{"select count(*) from r where r_s = 'red apple'",
			refCount(func(i int) bool { return sc.GetString(i) == "red apple" })},
	}
	for _, tc := range cases {
		res := run(t, db, tc.q)
		if res.Rows[0][0] != tc.want {
			t.Errorf("%q = %d, want %d", tc.q, res.Rows[0][0], tc.want)
		}
	}
}

func TestProjectionQuery(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select r_x, r_a * 2 as dbl from r where r_x < 5")
	for _, row := range res.Rows {
		if row[0] >= 5 {
			t.Error("filter not applied")
		}
	}
	if res.Fields.Index("dbl") != 1 {
		t.Errorf("fields: %v", res.Fields)
	}
}

func TestTwoTableJoin(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select sum(r_a) from r, dim where r_fk = d_pk and d_x < 50 and r_x < 50")
	r, dim := db.MustTable("r"), db.MustTable("dim")
	qual := map[int64]bool{}
	for i := 0; i < dim.Rows(); i++ {
		if dim.MustColumn("d_x").Get(i) < 50 {
			qual[int64(i)] = true
		}
	}
	var want int64
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < 50 && qual[r.MustColumn("r_fk").Get(i)] {
			want += r.MustColumn("r_a").Get(i)
		}
	}
	if res.Rows[0][0] != want {
		t.Errorf("got %d, want %d", res.Rows[0][0], want)
	}
	// Table order must not matter (FK orientation wins).
	res2 := run(t, db, "select sum(r_a) from dim, r where d_pk = r_fk and d_x < 50 and r_x < 50")
	if res2.Rows[0][0] != want {
		t.Errorf("reversed: got %d, want %d", res2.Rows[0][0], want)
	}
}

func TestJoinResidual(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select count(*) from r, dim where r_fk = d_pk and r_x < d_x")
	r, dim := db.MustTable("r"), db.MustTable("dim")
	var want int64
	for i := 0; i < r.Rows(); i++ {
		fk := r.MustColumn("r_fk").Get(i)
		if r.MustColumn("r_x").Get(i) < dim.MustColumn("d_x").Get(int(fk)) {
			want++
		}
	}
	if res.Rows[0][0] != want {
		t.Errorf("got %d, want %d", res.Rows[0][0], want)
	}
}

func TestDecimalAndDateLiterals(t *testing.T) {
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t",
		storage.Compress("price", []int64{150, 250, 350}, storage.LogDecimal),
		storage.Compress("d", []int64{
			int64(storage.MustParseDate("1994-01-01")),
			int64(storage.MustParseDate("1994-06-15")),
			int64(storage.MustParseDate("1995-01-01")),
		}, storage.LogDate),
	))
	p, err := Compile("select count(*) from t where price >= 2.50 and d < date '1995-01-01'", db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := volcano.Run(context.Background(), p, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 1 {
		t.Errorf("got %d, want 1 (only 2.50 on 1994-06-15)", res.Rows[0][0])
	}
}

func TestCaseExpression(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select sum(case when r_x < 50 then r_a else 0 end) from r")
	r := db.MustTable("r")
	var want int64
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < 50 {
			want += r.MustColumn("r_a").Get(i)
		}
	}
	if res.Rows[0][0] != want {
		t.Errorf("got %d, want %d", res.Rows[0][0], want)
	}
}

func TestMinMaxAvg(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "select min(r_a), max(r_a), avg(r_a) from r")
	r := db.MustTable("r")
	mn, mx, sum := int64(1<<62), int64(-1<<62), int64(0)
	for i := 0; i < r.Rows(); i++ {
		v := r.MustColumn("r_a").Get(i)
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if res.Rows[0][0] != mn || res.Rows[0][1] != mx {
		t.Errorf("min/max: %v, want %d/%d", res.Rows[0], mn, mx)
	}
	if res.Rows[0][2] != sum*storage.DecimalOne/int64(r.Rows()) {
		t.Errorf("avg=%d", res.Rows[0][2])
	}
}

// badStatements are rejected by Compile or, failing that, by the
// interpreter.
var badStatements = []string{
	"",
	"select",
	"select from r",
	"select r_x r where",
	"select sum(r_a) from",
	"select sum(r_a from r",
	"select count(*) from r where r_x <",
	"select count(*) from r where r_s like 5",
	"select count(*) from r limit x",
	"select count(*) from r where 'unterminated",
	"select count(*) from r extra",
	"select r_x from r group by r_x",           // group by without aggregate
	"select r_a, sum(r_x) from r group by r_c", // non-grouped column
	"select count(*) from r, dim",              // no join condition
	"select count(*) from r, dim, r",           // 3 tables
	"select count(*) from nosuch",
	"select nosuch from r",
	"select count(*) from r where price > 1.234", // over-scale decimal
	"select count(*) from r order by zz",
	"select case when r_x < 1 then 2 from r", // missing end
	"select count(*) from r where r_x ? 3",
	"select sum(*) from r", // only count takes *: a nil argument recursed without end in the evaluator
	"select count(*) from r group by r_x having max(*) > 1",
}

func TestParseErrors(t *testing.T) {
	db := testDB(t)
	for _, q := range badStatements {
		if p, err := Compile(q, db); err == nil {
			if _, err2 := volcano.Run(context.Background(), p, db); err2 == nil {
				t.Errorf("accepted bad query %q", q)
			}
		}
	}
}

func TestStringEscapes(t *testing.T) {
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t", storage.NewStrings("s", []string{"it's", "plain"})))
	p, err := Compile("select count(*) from t where s = 'it''s'", db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := volcano.Run(context.Background(), p, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 1 {
		t.Errorf("escape: got %d", res.Rows[0][0])
	}
}
