package swole

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// appendTestDB builds a table exercising every field kind the ingestion
// kernels decode: int, decimal, date, and dictionary-encoded string.
func appendTestDB(t *testing.T) *DB {
	t.Helper()
	d := NewDB()
	err := d.CreateTable("sales",
		IntColumn("qty", []int64{1, 2, 3, 4}),
		DecimalColumn("price", []int64{150, 250, 350, 450}),
		DateColumn("day", []string{"1994-01-01", "1994-06-01", "1995-01-01", "1995-06-01"}),
		StringColumn("region", []string{"asia", "europe", "asia", "asia"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sumQty(t *testing.T, d *DB, q string) int64 {
	t.Helper()
	res, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows()[0][0]
}

func TestAppendCSVUnsharded(t *testing.T) {
	d := appendTestDB(t)
	defer d.Close()
	before := d.db.Table("sales")
	rep, err := d.AppendCSV("sales", []byte("10,9.99,1996-03-15,europe\n20,1.50,1996-04-01,asia\n"), IngestStrict)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 2 || rep.Rejected != 0 || len(rep.Errors) != 0 {
		t.Fatalf("report = %+v, want 2 accepted", rep)
	}
	if got := d.db.Table("sales").Rows(); got != 6 {
		t.Fatalf("rows = %d, want 6", got)
	}
	if d.db.Table("sales") == before {
		t.Error("the append registered no new table object")
	}
	// New rows visible to the interpreter with every kind decoded.
	if got := sumQty(t, d, "select sum(qty) from sales where region = 'asia'"); got != 28 {
		t.Errorf("asia qty = %d, want 28", got)
	}
	if got := sumQty(t, d, "select sum(qty) from sales where day > date '1996-01-01'"); got != 30 {
		t.Errorf("1996 qty = %d, want 30", got)
	}
	if got := sumQty(t, d, "select sum(price) from sales"); got != 150+250+350+450+999+150 {
		t.Errorf("price sum = %d", got)
	}
}

func TestAppendCSVStrictRejectsWholeBatch(t *testing.T) {
	d := appendTestDB(t)
	defer d.Close()
	rep, err := d.AppendCSV("sales", []byte("10,9.99,1996-03-15,europe\nbad,1.50,1996-04-01,asia\n"), IngestStrict)
	if err == nil {
		t.Fatal("strict batch with malformed row accepted")
	}
	if rep.Accepted != 0 {
		t.Errorf("strict failure reported %d accepted, want 0", rep.Accepted)
	}
	if len(rep.Errors) == 0 || !strings.Contains(rep.Errors[0], "line 2") {
		t.Errorf("errors = %v, want line-2 attribution", rep.Errors)
	}
	if got := d.db.Table("sales").Rows(); got != 4 {
		t.Errorf("strict failure appended rows: %d, want 4", got)
	}
	// The latched kernel error must not poison the next batch.
	rep, err = d.AppendCSV("sales", []byte("10,9.99,1996-03-15,europe\n"), IngestStrict)
	if err != nil || rep.Accepted != 1 {
		t.Fatalf("append after strict failure: %+v, %v", rep, err)
	}
}

func TestAppendCSVSkipPolicy(t *testing.T) {
	d := appendTestDB(t)
	defer d.Close()
	doc := "10,9.99,1996-03-15,europe\n" +
		"bad,1.50,1996-04-01,asia\n" + // malformed int
		"20,0.25,1996-05-01,mars\n" + // not in dictionary
		"30,1.00,1996-06-01,asia\n"
	rep, err := d.AppendCSV("sales", []byte(doc), IngestSkip)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 2 || rep.Rejected != 2 {
		t.Fatalf("report = %+v, want 2 accepted 2 rejected", rep)
	}
	if len(rep.Errors) != 2 || !strings.Contains(rep.Errors[1], "dictionary") {
		t.Errorf("errors = %v", rep.Errors)
	}
	if got := d.db.Table("sales").Rows(); got != 6 {
		t.Errorf("rows = %d, want 6", got)
	}
}

func TestAppendRows(t *testing.T) {
	d := appendTestDB(t)
	defer d.Close()
	// Raw values: dict code 0 = "asia" (order-preserving dictionary).
	if err := d.AppendRows("sales", [][]int64{{5, 500, 9000, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := sumQty(t, d, "select sum(qty) from sales where region = 'asia'"); got != 13 {
		t.Errorf("asia qty = %d, want 13", got)
	}
	if err := d.AppendRows("sales", [][]int64{{5, 500}}); err == nil {
		t.Error("short row accepted")
	}
	if err := d.AppendRows("sales", [][]int64{{5, 500, 9000, 99}}); err == nil {
		t.Error("out-of-dictionary code accepted")
	}
	if err := d.AppendRows("nope", [][]int64{{1}}); err == nil {
		t.Error("append to missing table accepted")
	}
	if err := d.AppendRows("sales", nil); err != nil {
		t.Errorf("empty append: %v", err)
	}
}

func TestAppendExtendsFKIndex(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 10_000, DimRows: 100, GroupKeys: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := "select sum(r_a) from r, s where r_fk = s_pk and s_x < 50"
	want, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Append child rows with valid foreign keys; the index must extend.
	// Column order: r_a, r_b, r_x, r_y, r_c, r_fk.
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i % 9), 1, int64(i % 100), 1, int64(i % 8), int64(i % 100)}
	}
	if err := d.AppendRows("r", rows); err != nil {
		t.Fatal(err)
	}
	if got := len(d.db.FK("r", "r_fk", "s", "s_pk").Pos); got != 10_500 {
		t.Fatalf("fk index covers %d rows, want 10500", got)
	}
	got, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique == "interpreter-fallback" {
		t.Fatal("fell back to interpreter")
	}
	ref, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows()[0][0] == want.Rows()[0][0] {
		t.Error("append did not change the join answer (test is vacuous)")
	}
	if got.Rows()[0][0] != ref.Rows()[0][0] {
		t.Errorf("swole = %d, interpreter = %d", got.Rows()[0][0], ref.Rows()[0][0])
	}

	// A violating foreign key aborts before anything registers.
	rowsBefore := d.db.Table("r").Rows()
	bad := [][]int64{{1, 1, 1, 1, 0, 9999}} // no s_pk = 9999
	if err := d.AppendRows("r", bad); err == nil {
		t.Fatal("referential-integrity violation accepted")
	}
	if got := d.db.Table("r").Rows(); got != rowsBefore {
		t.Errorf("failed append left %d rows, want %d", got, rowsBefore)
	}

	// Appending a duplicate key to the parent aborts too.
	if err := d.AppendRows("s", [][]int64{{0, 1}}); err == nil {
		t.Error("duplicate parent primary key accepted")
	}
	if err := d.AppendRows("s", [][]int64{{100, 1}}); err != nil {
		t.Errorf("fresh parent key rejected: %v", err)
	}
}

func TestAppendInvalidatesPlansThenRecaches(t *testing.T) {
	d := cacheTestDB(t, 1)
	defer d.Close()
	q := "select sum(a) from t where x < 5"
	if _, _, err := d.QuerySwole(q); err != nil {
		t.Fatal(err)
	}
	if _, ex, err := d.QuerySwole(q); err != nil || !ex.PlanCached {
		t.Fatalf("warm run not cached (err %v)", err)
	}
	if err := d.AppendRows("t", [][]int64{{100, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	res, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCached {
		t.Error("stale plan served after append")
	}
	if got, want := res.Rows()[0][0], sumQty(t, d, q); got != want {
		t.Errorf("post-append answer = %d, want %d", got, want)
	}
	if _, ex, err = d.QuerySwole(q); err != nil || !ex.PlanCached {
		t.Errorf("plan did not re-cache after append (err %v)", err)
	}
}

// TestAppendWidensKeysPastPacking: an append that widens a cached
// statement's group key past 63 bits leaves the statement without a plan —
// its re-prepare is refused (core.ErrKeysUnpacked) — so its cache entry is
// dropped and it answers on the interpreter exactly as Volcano does.
func TestAppendWidensKeysPastPacking(t *testing.T) {
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("t", IntColumn("k", []int64{-5, 0, 7, 7, 3}), IntColumn("v", []int64{1, 2, 3, 4, 5})); err != nil {
		t.Fatal(err)
	}
	q := "select k, sum(v) as s, count(*) as n from t group by k"
	for rep := 0; rep < 2; rep++ {
		if _, ex, err := d.QuerySwole(q); err != nil || ex.Technique == "interpreter-fallback" || ex.PlanCached != (rep == 1) {
			t.Fatalf("rep %d before the append: %s, cached %v (err %v)", rep, ex.Technique, ex.PlanCached, err)
		}
	}
	entries := d.PlanCacheLen()
	if err := d.AppendRows("t", [][]int64{{math.MinInt64, 6}, {math.MaxInt64, 7}}); err != nil {
		t.Fatal(err)
	}
	want, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		res, ex, err := d.QuerySwole(q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Technique != "interpreter-fallback" {
			t.Errorf("rep %d after the append: technique %s, want interpreter-fallback", rep, ex.Technique)
		}
		if !rowsEqual(res.Rows(), want.Rows()) {
			t.Errorf("rep %d after the append:\nvolcano: %v\nswole:   %v", rep, want.Rows(), res.Rows())
		}
		if n := d.PlanCacheLen(); n != entries-1 {
			t.Errorf("rep %d after the append: %d cache entries, want %d (the statement's dropped)", rep, n, entries-1)
		}
	}
}

func TestAppendCSVKernelReuseAndSchemaDrift(t *testing.T) {
	d := appendTestDB(t)
	defer d.Close()
	if _, err := d.AppendCSV("sales", []byte("1,1.00,1996-01-01,asia\n"), IngestStrict); err != nil {
		t.Fatal(err)
	}
	k1 := d.kernels["sales"]
	if _, err := d.AppendCSV("sales", []byte("2,2.00,1996-01-02,europe\n"), IngestSkip); err != nil {
		t.Fatal(err)
	}
	if d.kernels["sales"] != k1 {
		t.Error("kernel rebuilt for an unchanged schema")
	}
	// Replacing the table under the same name drifts the schema (fresh
	// dictionary): the cached kernel must be recompiled.
	if err := d.CreateTable("sales",
		IntColumn("qty", []int64{1}),
		DecimalColumn("price", []int64{100}),
		DateColumn("day", []string{"1994-01-01"}),
		StringColumn("region", []string{"asia"}),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendCSV("sales", []byte("3,3.00,1996-01-03,asia\n"), IngestStrict); err != nil {
		t.Fatal(err)
	}
	if d.kernels["sales"] == k1 {
		t.Error("kernel not rebuilt after CreateTable replaced the schema")
	}
	if got := d.db.Table("sales").Rows(); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
}

// TestAppendStatsMergedNotDropped pins the append-path half of the
// invalidation granularity story at the public level: an append keeps the
// appended table's statistics entries alive (merged, moved to the new table
// object) and other tables' plans and statistics untouched.
func TestAppendStatsMergedNotDropped(t *testing.T) {
	d := cacheTestDB(t, 1) // table t
	defer d.Close()
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := d.CreateTable("u", IntColumn("v", vals)); err != nil {
		t.Fatal(err)
	}
	qt := "select c, sum(a) from t where x < 5 group by c"
	qu := "select sum(v) from u where v < 100"
	for _, q := range []string{qt, qu} {
		if _, _, err := d.QuerySwole(q); err != nil {
			t.Fatal(err)
		}
	}
	statsBefore := d.engine.StatsCacheLen()
	if statsBefore == 0 {
		t.Fatal("no stats sampled (test is vacuous)")
	}
	if err := d.AppendRows("t", [][]int64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if got := d.engine.StatsCacheLen(); got != statsBefore {
		t.Errorf("append changed stats cache size: %d, want %d (entries merged, not dropped)", got, statsBefore)
	}
	// u's plan survived; t's was evicted and must recompile with the
	// merged statistics served as cache hits.
	if _, ex, err := d.QuerySwole(qu); err != nil || !ex.PlanCached {
		t.Errorf("u's plan evicted by t's append (err %v)", err)
	}
	if _, ex, err := d.QuerySwole(qt); err != nil {
		t.Fatal(err)
	} else {
		if ex.PlanCached {
			t.Error("t's stale plan served after append")
		}
		if !ex.StatsCached {
			t.Error("t's recompile re-sampled: merged statistics missed")
		}
	}
}

func TestAppendCSVReportsString(t *testing.T) {
	// Exercise IngestReport through a fmt round-trip so the json tags and
	// error rendering stay covered even without the server in the loop.
	rep := IngestReport{Accepted: 3, Rejected: 1, Errors: []string{"line 2: bad"}}
	if s := fmt.Sprintf("%+v", rep); !strings.Contains(s, "Accepted:3") {
		t.Errorf("report render: %s", s)
	}
}
