package swole

import (
	"strings"
	"testing"
)

func demoDB(t *testing.T) *DB {
	t.Helper()
	db, err := LoadMicro(MicroConfig{Rows: 20_000, DimRows: 200, GroupKeys: 10})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableAndQuery(t *testing.T) {
	db := NewDB()
	err := db.CreateTable("sales",
		IntColumn("qty", []int64{1, 2, 3, 4}),
		DecimalColumn("price", []int64{150, 250, 350, 450}),
		DateColumn("day", []string{"1994-01-01", "1994-06-01", "1995-01-01", "1995-06-01"}),
		StringColumn("region", []string{"asia", "europe", "asia", "asia"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("select sum(qty) from sales where region = 'asia' and day < date '1995-02-01'")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows()[0][0] != 4 {
		t.Errorf("got %v, want [[4]]", res.Rows())
	}
	if res.Columns()[0] != "sum_0" {
		t.Errorf("columns: %v", res.Columns())
	}
	if res.String() == "" || res.StringLimit(1) == "" {
		t.Error("empty render")
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", IntColumn("a", []int64{1}), IntColumn("b", []int64{1, 2})); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := db.CreateTable("t", DateColumn("d", []string{"bad"})); err == nil {
		t.Error("bad date accepted")
	}
	if err := db.CreateTable("t", Column{}); err == nil {
		t.Error("zero column accepted")
	}
}

func TestQuerySwoleScalarMatchesInterpreter(t *testing.T) {
	db := demoDB(t)
	q := "select sum(r_a * r_b) from r where r_x < 40"
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := db.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows()[0][0] != ref.Rows()[0][0] {
		t.Errorf("swole=%d interpreter=%d", got.Rows()[0][0], ref.Rows()[0][0])
	}
	if ex.Technique == "interpreter-fallback" {
		t.Error("scalar aggregation should be a supported shape")
	}
	if ex.Selectivity < 0.3 || ex.Selectivity > 0.5 {
		t.Errorf("selectivity estimate %v", ex.Selectivity)
	}
	if len(ex.Costs) == 0 {
		t.Error("no cost evidence in explain")
	}
}

func TestQuerySwoleGroupMatchesInterpreter(t *testing.T) {
	db := demoDB(t)
	q := "select r_c, sum(r_a) from r where r_x < 70 group by r_c"
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := db.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != ref.NumRows() {
		t.Fatalf("%d groups vs %d", got.NumRows(), ref.NumRows())
	}
	refMap := map[int64]int64{}
	for _, row := range ref.Rows() {
		refMap[row[0]] = row[1]
	}
	for _, row := range got.Rows() {
		if refMap[row[0]] != row[1] {
			t.Errorf("group %d: %d vs %d", row[0], row[1], refMap[row[0]])
		}
	}
	if ex.Groups < 8 || ex.Groups > 12 {
		t.Errorf("group estimate %d for true 10", ex.Groups)
	}
}

func TestQuerySwoleSemiJoin(t *testing.T) {
	db := demoDB(t)
	q := "select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50"
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := db.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows()[0][0] != ref.Rows()[0][0] {
		t.Errorf("swole=%d interpreter=%d", got.Rows()[0][0], ref.Rows()[0][0])
	}
	if ex.Technique != "positional-bitmap" {
		t.Errorf("technique=%s, want positional-bitmap", ex.Technique)
	}
}

func TestQuerySwoleGroupJoin(t *testing.T) {
	db := demoDB(t)
	q := "select r_fk, sum(r_a * r_b) from r, s where r_fk = s_pk and s_x < 50 group by r_fk"
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := db.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != ref.NumRows() {
		t.Fatalf("%d groups vs %d (technique %s)", got.NumRows(), ref.NumRows(), ex.Technique)
	}
	refMap := map[int64]int64{}
	for _, row := range ref.Rows() {
		refMap[row[0]] = row[1]
	}
	for _, row := range got.Rows() {
		if refMap[row[0]] != row[1] {
			t.Errorf("group %d: %d vs %d", row[0], row[1], refMap[row[0]])
		}
	}
	if ex.Technique != "eager-aggregation" && ex.Technique != "hybrid" {
		t.Errorf("unexpected technique %s", ex.Technique)
	}
}

func TestQuerySwoleFallback(t *testing.T) {
	db := demoDB(t)
	// A statement without an aggregate is outside the executor's vocabulary.
	q := "select r_a, r_c from r where r_x < 2 order by r_c"
	got, ex, err := db.QuerySwole(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique != "interpreter-fallback" || ex.Shape != "interpreter-fallback" {
		t.Errorf("technique=%s shape=%s, want fallback", ex.Technique, ex.Shape)
	}
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() == 0 || !rowsEqual(got.Rows(), want.Rows()) {
		t.Errorf("rows %v, want %v", got.Rows(), want.Rows())
	}
}

// TestQuerySwoleOrderBy runs a grouped statement with ORDER BY and LIMIT on
// the engine: a synthesized shape, the interpreter's rows in the
// interpreter's order, a plan-cached replay, and the shape's bucket.
func TestQuerySwoleOrderBy(t *testing.T) {
	db := demoDB(t)
	q := "select r_c, sum(r_a) as s from r group by r_c order by s desc limit 3"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for run := range 2 {
		got, ex, err := db.QuerySwole(q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Shape != "scan+groupagg+sort+limit" {
			t.Errorf("run %d: shape %q", run, ex.Shape)
		}
		if ex.PlanCached != (run > 0) {
			t.Errorf("run %d: PlanCached=%v", run, ex.PlanCached)
		}
		if got.NumRows() != 3 || !rowsEqual(got.Rows(), want.Rows()) {
			t.Errorf("run %d: rows %v, want %v in order", run, got.Rows(), want.Rows())
		}
		if b := ShapeBucket(ex.Shape); b != "group-agg" {
			t.Errorf("run %d: bucket %q, want group-agg", run, b)
		}
	}
}

func TestExplainPlan(t *testing.T) {
	db := demoDB(t)
	text, err := db.ExplainPlan("select sum(r_a) from r where r_x < 13")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan r", "agg sum(r_a)", "r_x < 13"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
}

func TestGenerateCodeAllStrategies(t *testing.T) {
	db := demoDB(t)
	q := "select sum(r_a * r_x) from r where r_x < 13"
	for _, s := range []string{"data-centric", "hybrid", "rof", "value-masking", "access-merging"} {
		src, err := db.GenerateCode(q, s)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if !strings.Contains(src, "func query(") {
			t.Errorf("%s: no function emitted", s)
		}
	}
	gq := "select r_c, sum(r_a) from r where r_x < 13 group by r_c"
	if _, err := db.GenerateCode(gq, "key-masking"); err != nil {
		t.Errorf("key-masking: %v", err)
	}
	if _, err := db.GenerateCode(q, "no-such"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := db.GenerateCode("select r_a from r", "hybrid"); err == nil {
		t.Error("non-aggregate accepted")
	}
}

func TestLoadTPCH(t *testing.T) {
	db := LoadTPCH(0.002)
	res, err := db.Query("select count(*) from lineitem where l_shipdate <= date '1998-09-02'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] == 0 {
		t.Error("no lineitem rows")
	}
	// SWOLE path over TPC-H via the public API.
	got, ex, err := db.QuerySwole("select sum(l_extendedprice * l_discount) from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' and l_discount between 0.05 and 0.07 and l_quantity < 24")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Query("select sum(l_extendedprice * l_discount) from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' and l_discount between 0.05 and 0.07 and l_quantity < 24")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows()[0][0] != ref.Rows()[0][0] {
		t.Errorf("Q6 via SWOLE (%s) = %d, interpreter = %d", ex.Technique, got.Rows()[0][0], ref.Rows()[0][0])
	}
}

func TestFormatHelpers(t *testing.T) {
	if FormatDate(0) != "1970-01-01" {
		t.Error("FormatDate broken")
	}
	if FormatDecimal(150) != "1.50" {
		t.Error("FormatDecimal broken")
	}
}

func TestCompareStrategiesScalar(t *testing.T) {
	db := demoDB(t)
	runs, err := db.CompareStrategies("select sum(r_a * r_b) from r where r_x < 60")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs=%d", len(runs))
	}
	want := runs[0].Result.Rows()[0][0]
	names := map[string]bool{}
	for _, r := range runs {
		if r.Result.Rows()[0][0] != want {
			t.Errorf("%s disagrees: %d vs %d", r.Strategy, r.Result.Rows()[0][0], want)
		}
		if r.Runtime <= 0 {
			t.Errorf("%s: no runtime", r.Strategy)
		}
		names[r.Strategy] = true
	}
	for _, n := range []string{"hybrid", "value-masking"} {
		if !names[n] {
			t.Errorf("missing strategy %s", n)
		}
	}
	if FastestStrategy(runs).Strategy == "" {
		t.Error("no fastest")
	}
	// The interpreter must agree too.
	ref, err := db.Query("select sum(r_a * r_b) from r where r_x < 60")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rows()[0][0] != want {
		t.Errorf("interpreter %d vs strategies %d", ref.Rows()[0][0], want)
	}
}

func TestCompareStrategiesGroup(t *testing.T) {
	db := demoDB(t)
	runs, err := db.CompareStrategies("select r_c, count(*) from r where r_x < 40 group by r_c")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs=%d", len(runs))
	}
	ref := runs[0].Result.Rows()
	for _, r := range runs[1:] {
		rows := r.Result.Rows()
		if len(rows) != len(ref) {
			t.Fatalf("%s: %d groups vs %d", r.Strategy, len(rows), len(ref))
		}
		for i := range ref {
			if rows[i][0] != ref[i][0] || rows[i][1] != ref[i][1] {
				t.Errorf("%s row %d: %v vs %v", r.Strategy, i, rows[i], ref[i])
			}
		}
	}
}

func TestCompareStrategiesUnsupported(t *testing.T) {
	db := demoDB(t)
	if _, err := db.CompareStrategies("select r_c from r"); err == nil { // no aggregate
		t.Error("accepted a statement without an aggregate")
	}
}

// Statements only the generic executor runs race its three kernels (two
// when scalar), plus eager aggregation for a groupjoin over a filtered
// parent, all agreeing with the interpreter.
func TestCompareStrategiesGeneric(t *testing.T) {
	db := demoDB(t)
	for q, n := range map[string]int{
		"select min(r_a), max(r_b) from r where r_x < 30":                                       2,
		"select sum(r_a) from r, s where r_fk = s_pk":                                           2,
		"select r_c, r_fk, sum(r_a) from r group by r_c, r_fk":                                  3,
		"select r_c, sum(r_a), count(*) from r where r_x < 70 group by r_c having count(*) > 1": 3,
		"select r_fk, sum(r_a) from r, s where r_fk = s_pk group by r_fk":                       3,
		"select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk":          4,
	} {
		runs, err := db.CompareStrategies(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(runs) != n {
			t.Errorf("%q: %d strategies, want %d", q, len(runs), n)
		}
		ref, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if !rowsEqual(sortedRows(ref.Rows()), sortedRows(r.Result.Rows())) {
				t.Errorf("%q under %s disagrees with the interpreter", q, r.Strategy)
			}
		}
	}
}

func TestShapeBucket(t *testing.T) {
	for sig, want := range map[string]string{
		"scan+filter+scalaragg":        "scalar-agg",
		"scan+filter+groupagg":         "group-agg",
		"scan+filter+join:1+scalaragg": "semijoin-agg",
		"scan+filter+join:1+groupagg":  "groupjoin-agg",
		"scan+groupagg+sort+limit":     "group-agg",
		"interpreter-fallback":         "interpreter-fallback",
	} {
		if got := ShapeBucket(sig); got != want {
			t.Errorf("ShapeBucket(%q) = %q, want %q", sig, got, want)
		}
	}
}
