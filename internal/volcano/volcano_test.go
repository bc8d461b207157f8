package volcano

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// testDB builds a tiny R (fact) / S (dim) database with known contents.
//
//	R: r_fk in [0,4), r_x in [0,10), r_a small ints, r_s strings
//	S: s_pk = 0..3, s_x = pk*10, s_name strings
func testDB(t *testing.T, nR int) *storage.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	fk := make([]int64, nR)
	x := make([]int64, nR)
	a := make([]int64, nR)
	s := make([]string, nR)
	words := []string{"red apple", "green pear", "red plum", "blue berry"}
	for i := 0; i < nR; i++ {
		fk[i] = int64(rng.Intn(4))
		x[i] = int64(rng.Intn(10))
		a[i] = int64(rng.Intn(100))
		s[i] = words[rng.Intn(len(words))]
	}
	r := storage.MustNewTable("r",
		storage.Compress("r_fk", fk, storage.LogInt),
		storage.Compress("r_x", x, storage.LogInt),
		storage.Compress("r_a", a, storage.LogInt),
		storage.NewStrings("r_s", s),
	)
	sTab := storage.MustNewTable("s",
		storage.Compress("s_pk", []int64{0, 1, 2, 3}, storage.LogInt),
		storage.Compress("s_x", []int64{0, 10, 20, 30}, storage.LogInt),
		storage.NewStrings("s_name", []string{"zero", "one", "two", "three"}),
	)
	db := storage.NewDatabase()
	db.AddTable(r)
	db.AddTable(sTab)
	if err := db.AddFKIndex("r", "r_fk", "s", "s_pk"); err != nil {
		t.Fatal(err)
	}
	return db
}

func lt(col string, v int64) expr.Expr {
	return &expr.Cmp{Op: expr.LT, L: expr.NewCol(col), R: &expr.Const{Val: v}}
}

func TestScanFilterCount(t *testing.T) {
	db := testDB(t, 500)
	res, err := Run(context.Background(), &plan.Scan{Table: "r", Filter: lt("r_x", 5)}, db)
	if err != nil {
		t.Fatal(err)
	}
	// Reference count.
	xc := db.MustTable("r").MustColumn("r_x")
	want := 0
	for i := 0; i < 500; i++ {
		if xc.Get(i) < 5 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("got %d rows, want %d", len(res.Rows), want)
	}
	// Separate Filter node must agree with scan-embedded filter.
	res2, err := Run(context.Background(), &plan.Filter{Input: &plan.Scan{Table: "r"}, Pred: lt("r_x", 5)}, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EqualRows(res2.Rows) {
		t.Error("Filter node disagrees with scan filter")
	}
}

func TestScalarAggregate(t *testing.T) {
	db := testDB(t, 300)
	q := &plan.Aggregate{
		Input: &plan.Scan{Table: "r", Filter: lt("r_x", 5)},
		Aggs: []plan.AggSpec{
			{Func: plan.Sum, Arg: expr.NewCol("r_a"), As: "s"},
			{Func: plan.Count, As: "c"},
			{Func: plan.Min, Arg: expr.NewCol("r_a"), As: "mn"},
			{Func: plan.Max, Arg: expr.NewCol("r_a"), As: "mx"},
			{Func: plan.Avg, Arg: expr.NewCol("r_a"), As: "av"},
		},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	// Reference.
	r := db.MustTable("r")
	xc, ac := r.MustColumn("r_x"), r.MustColumn("r_a")
	var sum, cnt, mn, mx int64
	mn = 1 << 62
	mx = -(1 << 62)
	for i := 0; i < r.Rows(); i++ {
		if xc.Get(i) >= 5 {
			continue
		}
		v := ac.Get(i)
		sum += v
		cnt++
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	row := res.Rows[0]
	if row[0] != sum || row[1] != cnt || row[2] != mn || row[3] != mx {
		t.Errorf("got %v, want sum=%d cnt=%d mn=%d mx=%d", row, sum, cnt, mn, mx)
	}
	if row[4] != sum*storage.DecimalOne/cnt {
		t.Errorf("avg=%d, want %d", row[4], sum*storage.DecimalOne/cnt)
	}
}

func TestEmptyScalarAggregate(t *testing.T) {
	db := testDB(t, 100)
	q := &plan.Aggregate{
		Input: &plan.Scan{Table: "r", Filter: lt("r_x", -1)},
		Aggs: []plan.AggSpec{
			{Func: plan.Sum, Arg: expr.NewCol("r_a"), As: "s"},
			{Func: plan.Count, As: "c"},
			{Func: plan.Avg, Arg: expr.NewCol("r_a"), As: "av"},
		},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 || res.Rows[0][1] != 0 || res.Rows[0][2] != 0 {
		t.Errorf("empty aggregate: %v", res.Rows)
	}
}

func TestGroupByAggregate(t *testing.T) {
	db := testDB(t, 400)
	q := &plan.Aggregate{
		Input:   &plan.Scan{Table: "r"},
		GroupBy: []string{"r_fk"},
		Aggs:    []plan.AggSpec{{Func: plan.Sum, Arg: expr.NewCol("r_a"), As: "s"}},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Reference with a map.
	r := db.MustTable("r")
	ref := map[int64]int64{}
	for i := 0; i < r.Rows(); i++ {
		ref[r.MustColumn("r_fk").Get(i)] += r.MustColumn("r_a").Get(i)
	}
	if len(res.Rows) != len(ref) {
		t.Fatalf("groups=%d, want %d", len(res.Rows), len(ref))
	}
	for _, row := range res.Rows {
		if ref[row[0]] != row[1] {
			t.Errorf("group %d: sum=%d, want %d", row[0], row[1], ref[row[0]])
		}
	}
}

func TestMultiKeyGroupBy(t *testing.T) {
	db := testDB(t, 400)
	q := &plan.Aggregate{
		Input:   &plan.Scan{Table: "r"},
		GroupBy: []string{"r_fk", "r_x"},
		Aggs:    []plan.AggSpec{{Func: plan.Count, As: "c"}},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, row := range res.Rows {
		total += row[2]
	}
	if total != 400 {
		t.Errorf("counts sum to %d, want 400", total)
	}
}

func TestInnerJoin(t *testing.T) {
	db := testDB(t, 300)
	q := &plan.Aggregate{
		Input: &plan.Join{
			Probe:    &plan.Scan{Table: "r", Filter: lt("r_x", 5)},
			Build:    &plan.Scan{Table: "s", Filter: lt("s_x", 25)},
			ProbeKey: "r_fk",
			BuildKey: "s_pk",
		},
		Aggs: []plan.AggSpec{{Func: plan.Sum, Arg: expr.NewCol("r_a"), As: "s"}, {Func: plan.Count, As: "c"}},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	var sum, cnt int64
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < 5 && r.MustColumn("r_fk").Get(i)*10 < 25 {
			sum += r.MustColumn("r_a").Get(i)
			cnt++
		}
	}
	if res.Rows[0][0] != sum || res.Rows[0][1] != cnt {
		t.Errorf("got %v, want sum=%d cnt=%d", res.Rows[0], sum, cnt)
	}
}

func TestJoinResidual(t *testing.T) {
	db := testDB(t, 300)
	// Residual references both sides: r_x < s_x.
	q := &plan.Aggregate{
		Input: &plan.Join{
			Probe:    &plan.Scan{Table: "r"},
			Build:    &plan.Scan{Table: "s"},
			ProbeKey: "r_fk",
			BuildKey: "s_pk",
			Residual: &expr.Cmp{Op: expr.LT, L: expr.NewCol("r_x"), R: expr.NewCol("s_x")},
		},
		Aggs: []plan.AggSpec{{Func: plan.Count, As: "c"}},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	var cnt int64
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < r.MustColumn("r_fk").Get(i)*10 {
			cnt++
		}
	}
	if res.Rows[0][0] != cnt {
		t.Errorf("got %d, want %d", res.Rows[0][0], cnt)
	}
}

func TestSemiJoin(t *testing.T) {
	db := testDB(t, 300)
	// Which s rows have at least one r with r_x < 2? Semijoin s against r.
	q := &plan.Join{
		Probe:    &plan.Scan{Table: "s"},
		Build:    &plan.Scan{Table: "r", Filter: lt("r_x", 2)},
		ProbeKey: "s_pk",
		BuildKey: "r_fk",
		Semi:     true,
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	want := map[int64]bool{}
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < 2 {
			want[r.MustColumn("r_fk").Get(i)] = true
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows=%d, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if !want[row[0]] {
			t.Errorf("unexpected s_pk %d", row[0])
		}
	}
	// Semijoin output schema must not leak build columns.
	if len(res.Fields) != 3 || res.Fields.Index("r_x") >= 0 {
		t.Errorf("semijoin fields: %v", res.Fields)
	}
}

func TestDuplicateBuildKeyRejected(t *testing.T) {
	db := testDB(t, 10)
	// r_fk has duplicates, so using r as inner-join build side must error.
	_, err := Run(context.Background(), &plan.Join{
		Probe: &plan.Scan{Table: "s"}, Build: &plan.Scan{Table: "r"},
		ProbeKey: "s_pk", BuildKey: "r_fk",
	}, db)
	if err == nil {
		t.Error("duplicate build keys accepted in inner join")
	}
}

func TestGroupJoin(t *testing.T) {
	db := testDB(t, 300)
	q := &plan.GroupJoin{
		Build:    &plan.Scan{Table: "s", Filter: lt("s_x", 25)},
		Probe:    &plan.Scan{Table: "r"},
		BuildKey: "s_pk",
		ProbeKey: "r_fk",
		Aggs:     []plan.AggSpec{{Func: plan.Sum, Arg: expr.NewCol("r_a"), As: "s"}, {Func: plan.Count, As: "c"}},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	sums := map[int64]int64{}
	counts := map[int64]int64{}
	for i := 0; i < r.Rows(); i++ {
		k := r.MustColumn("r_fk").Get(i)
		if k*10 < 25 {
			sums[k] += r.MustColumn("r_a").Get(i)
			counts[k]++
		}
	}
	if len(res.Rows) != len(sums) {
		t.Fatalf("groups=%d, want %d", len(res.Rows), len(sums))
	}
	sIdx := res.Fields.Index("s")
	cIdx := res.Fields.Index("c")
	for _, row := range res.Rows {
		k := row[0]
		if row[sIdx] != sums[k] || row[cIdx] != counts[k] {
			t.Errorf("group %d: got (%d,%d), want (%d,%d)", k, row[sIdx], row[cIdx], sums[k], counts[k])
		}
	}
}

func TestOuterGroupJoin(t *testing.T) {
	db := testDB(t, 50)
	// Probe filtered to nothing: outer groupjoin still emits all build
	// rows with zero aggregates (the TPC-H Q13 shape).
	q := &plan.GroupJoin{
		Build:    &plan.Scan{Table: "s"},
		Probe:    &plan.Scan{Table: "r", Filter: lt("r_x", -1)},
		BuildKey: "s_pk",
		ProbeKey: "r_fk",
		Aggs:     []plan.AggSpec{{Func: plan.Count, As: "c"}},
		Outer:    true,
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows=%d, want 4", len(res.Rows))
	}
	cIdx := res.Fields.Index("c")
	for _, row := range res.Rows {
		if row[cIdx] != 0 {
			t.Errorf("outer group %d count=%d, want 0", row[0], row[cIdx])
		}
	}
}

func TestMapAndSort(t *testing.T) {
	db := testDB(t, 100)
	q := &plan.Sort{
		Input: &plan.Map{
			Input: &plan.Scan{Table: "r"},
			Exprs: []plan.NamedExpr{
				{Expr: expr.NewCol("r_fk"), As: "k"},
				{Expr: &expr.Arith{Op: expr.Mul, L: expr.NewCol("r_a"), R: &expr.Const{Val: 2}}, As: "double_a"},
			},
		},
		Keys:  []plan.SortKey{{Col: "double_a", Desc: true}},
		Limit: 5,
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("limit not applied: %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1] > res.Rows[i-1][1] {
			t.Error("not sorted descending")
		}
	}
	if res.Fields.Index("double_a") != 1 || len(res.Fields) != 2 {
		t.Errorf("map fields: %v", res.Fields)
	}
}

// TestSortTiesByColumns cuts a LIMIT inside a run of rows tied on the sort
// key: the tied rows order by their output columns, left to right,
// ascending, not by the groups' first-seen order.
func TestSortTiesByColumns(t *testing.T) {
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("t",
		storage.Compress("k", []int64{5, 3, 1, 2, 0, 3, 1, 2, 0}, storage.LogInt)))
	q := &plan.Sort{
		Input: &plan.Aggregate{
			Input:   &plan.Scan{Table: "t"},
			GroupBy: []string{"k"},
			Aggs:    []plan.AggSpec{{Func: plan.Count, As: "n"}},
		},
		Keys:  []plan.SortKey{{Col: "n", Desc: true}},
		Limit: 2,
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{0, 2}, {1, 2}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows %v, want %v", res.Rows, want)
	}
}

func TestStringPredicatesThroughJoin(t *testing.T) {
	db := testDB(t, 200)
	// LIKE on the probe side, string equality on the build side.
	q := &plan.Aggregate{
		Input: &plan.Join{
			Probe:    &plan.Scan{Table: "r", Filter: &expr.Like{X: expr.NewCol("r_s"), Pattern: "red%"}},
			Build:    &plan.Scan{Table: "s", Filter: &expr.Cmp{Op: expr.NE, L: expr.NewCol("s_name"), R: &expr.StrConst{Val: "two"}}},
			ProbeKey: "r_fk",
			BuildKey: "s_pk",
		},
		Aggs: []plan.AggSpec{{Func: plan.Count, As: "c"}},
	}
	res, err := Run(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	var want int64
	for i := 0; i < r.Rows(); i++ {
		name := r.MustColumn("r_s").GetString(i)
		if len(name) >= 3 && name[:3] == "red" && r.MustColumn("r_fk").Get(i) != 2 {
			want++
		}
	}
	if res.Rows[0][0] != want {
		t.Errorf("got %d, want %d", res.Rows[0][0], want)
	}
}

func TestRunErrors(t *testing.T) {
	db := testDB(t, 10)
	if _, err := Run(context.Background(), &plan.Scan{Table: "nope"}, db); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := Run(context.Background(), &plan.Scan{Table: "r", Filter: lt("nope", 1)}, db); err == nil {
		t.Error("unknown filter column accepted")
	}
	if _, err := Run(context.Background(), &plan.Sort{Input: &plan.Scan{Table: "r"}, Keys: []plan.SortKey{{Col: "zz"}}}, db); err == nil {
		t.Error("unknown sort key accepted")
	}
	if _, err := Run(context.Background(), &plan.Aggregate{Input: &plan.Scan{Table: "r"}, GroupBy: []string{"zz"}, Aggs: []plan.AggSpec{{Func: plan.Count, As: "c"}}}, db); err == nil {
		t.Error("unknown group key accepted")
	}
	if _, err := Run(context.Background(), &plan.Scan{}, db); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	db := testDB(t, 50)
	res, err := Run(context.Background(), &plan.Aggregate{
		Input:   &plan.Scan{Table: "r"},
		GroupBy: []string{"r_fk"},
		Aggs:    []plan.AggSpec{{Func: plan.Count, As: "c"}},
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	sorted := res.SortedRows()
	for i := 1; i < len(sorted); i++ {
		if sorted[i][0] < sorted[i-1][0] {
			t.Error("SortedRows not sorted")
		}
	}
	if !res.EqualRows(res.Rows) {
		t.Error("EqualRows(self) false")
	}
	if res.EqualRows(res.Rows[1:]) {
		t.Error("EqualRows with missing row true")
	}
	col := res.Col("c")
	var total int64
	for _, v := range col {
		total += v
	}
	if total != 50 {
		t.Errorf("counts total %d", total)
	}
	out := res.Format(2)
	if out == "" {
		t.Error("empty Format")
	}
}

func TestPlanFormatAndValidate(t *testing.T) {
	q := &plan.Sort{
		Input: &plan.Aggregate{
			Input:   &plan.Scan{Table: "r", Filter: lt("r_x", 5)},
			GroupBy: []string{"r_fk"},
			Aggs:    []plan.AggSpec{{Func: plan.Sum, Arg: expr.NewCol("r_a"), As: "s"}},
		},
		Keys: []plan.SortKey{{Col: "s", Desc: true}},
	}
	if err := plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	text := plan.Format(q)
	for _, want := range []string{"sort s desc", "agg sum(r_a) as s group by r_fk", "scan r where r_x < 5"} {
		if !contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// deadlineCtx counts its Err calls; with after > 0 its deadline passes once
// after calls have been made, and Done reports it from then on.
type deadlineCtx struct {
	context.Context
	calls, after int
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *deadlineCtx) Err() error {
	if c.calls++; c.after > 0 && c.calls > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *deadlineCtx) Done() <-chan struct{} {
	if c.after > 0 && c.calls >= c.after {
		return closedDone
	}
	return nil
}

// TestRunDeadlineAfterScans: a deadline that passes after the scans' last
// poll — while the sort orders the rows — still fails the statement. The
// first run counts the polls; in the second the deadline passes right after
// the last of them, so only a check after the rows are in can see it.
func TestRunDeadlineAfterScans(t *testing.T) {
	db := testDB(t, 3*pollRows+5)
	q := func() plan.Node {
		return &plan.Sort{Input: &plan.Scan{Table: "r", Filter: lt("r_x", 5)}, Keys: []plan.SortKey{{Col: "r_a"}}}
	}
	count := &deadlineCtx{Context: context.Background()}
	if _, err := Run(count, q(), db); err != nil {
		t.Fatal(err)
	}
	if count.calls == 0 {
		t.Fatal("the scan never polled its context")
	}
	late := &deadlineCtx{Context: context.Background(), after: count.calls}
	if _, err := Run(late, q(), db); err != context.DeadlineExceeded {
		t.Fatalf("deadline passed after the last poll: err %v, want DeadlineExceeded", err)
	}
}
