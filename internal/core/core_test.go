package core

import (
	"fmt"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// testDB builds a small R/S database with a controllable group-key
// cardinality.
func testDB(t *testing.T, nR, nS, ccard int) *storage.Database {
	t.Helper()
	rng := uint64(99)
	next := func(n int) int64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int64((z ^ (z >> 31)) % uint64(n))
	}
	x := make([]int64, nR)
	a := make([]int64, nR)
	c := make([]int64, nR)
	fk := make([]int64, nR)
	for i := 0; i < nR; i++ {
		x[i] = next(100)
		a[i] = next(50) + 1
		c[i] = next(ccard)
		fk[i] = next(nS)
	}
	spk := make([]int64, nS)
	sx := make([]int64, nS)
	for i := 0; i < nS; i++ {
		spk[i] = int64(i)
		sx[i] = next(100)
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("r",
		storage.Compress("r_x", x, storage.LogInt),
		storage.Compress("r_a", a, storage.LogInt),
		storage.Compress("r_c", c, storage.LogInt),
		storage.Compress("r_fk", fk, storage.LogInt),
	))
	db.AddTable(storage.MustNewTable("s",
		storage.Compress("s_pk", spk, storage.LogInt),
		storage.Compress("s_x", sx, storage.LogInt),
	))
	// The tile pipeline joins through the registered foreign-key index.
	if err := db.AddFKIndex("r", "r_fk", "s", "s_pk"); err != nil {
		t.Fatal(err)
	}
	return db
}

func lt(c string, v int64) expr.Expr {
	return &expr.Cmp{Op: expr.LT, L: expr.NewCol(c), R: &expr.Const{Val: v}}
}

func refScalar(db *storage.Database, sel int64) int64 {
	r := db.MustTable("r")
	var sum int64
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < sel {
			sum += r.MustColumn("r_a").Get(i)
		}
	}
	return sum
}

func TestScalarAggBothTechniques(t *testing.T) {
	db := testDB(t, 30_000, 100, 10)
	e := NewEngine(db)
	// Cheap aggregation: value masking should win at high selectivity,
	// hybrid at very low.
	for _, sel := range []int64{1, 30, 95} {
		got, ex, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", sel), Agg: expr.NewCol("r_a")}))
		if err != nil {
			t.Fatal(err)
		}
		if want := refScalar(db, sel); got != want {
			t.Errorf("sel=%d (%s): got %d, want %d", sel, ex.Technique, got, want)
		}
	}
	// Decision direction check, on an aggregate value masking folds through
	// the mask (r_a + r_c is no bare column or product).
	sum := func() expr.Expr { return &expr.Arith{Op: expr.Add, L: expr.NewCol("r_a"), R: expr.NewCol("r_c")} }
	_, exLow, _ := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 1), Agg: sum()}))
	if exLow.Technique != TechHybrid {
		t.Errorf("1%% selectivity chose %s, want hybrid", exLow.Technique)
	}
	_, exHigh, _ := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 95), Agg: sum()}))
	if exHigh.Technique == TechHybrid {
		t.Errorf("95%% selectivity chose hybrid; pullup expected")
	}
	if exLow.Selectivity > 0.05 || exHigh.Selectivity < 0.85 {
		t.Errorf("selectivity estimates off: %.3f / %.3f", exLow.Selectivity, exHigh.Selectivity)
	}
	// Where value masking computes the int8 predicate inline, its own
	// per-row term prices it under hybrid even at 1%.
	_, exFused, _ := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 1), Agg: expr.NewCol("r_a")}))
	if want := e.Params.ValueMaskingFused(30_000); vec.HasAVX2 &&
		(exFused.Technique != TechValueMasking || exFused.Costs["value-masking"] != want || exFused.Kernel != "sum(i8)/scalar/cmp(i8)/avx2") {
		t.Errorf("1%% selectivity over int8: %s at %v (%s), want value-masking at %v", exFused.Technique, exFused.Costs, exFused.Kernel, want)
	}
}

func TestScalarAggNoFilter(t *testing.T) {
	db := testDB(t, 5_000, 10, 10)
	e := NewEngine(db)
	got, ex, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Agg: expr.NewCol("r_a")}))
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	var want int64
	for i := 0; i < r.Rows(); i++ {
		want += r.MustColumn("r_a").Get(i)
	}
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
	if ex.Selectivity != 1.0 {
		t.Errorf("selectivity without filter = %v", ex.Selectivity)
	}
}

func TestScalarAggAccessMergingDetected(t *testing.T) {
	db := testDB(t, 10_000, 10, 10)
	e := NewEngine(db)
	// r_x appears in both filter and aggregate at high selectivity.
	agg := &expr.Arith{Op: expr.Mul, L: expr.NewCol("r_x"), R: expr.NewCol("r_a")}
	got, ex, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 90), Agg: agg}))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique != TechAccessMerging {
		t.Errorf("technique=%s, want access-merging", ex.Technique)
	}
	if len(ex.Merged) != 1 || ex.Merged[0] != "r_x" {
		t.Errorf("merged=%v", ex.Merged)
	}
	r := db.MustTable("r")
	var want int64
	for i := 0; i < r.Rows(); i++ {
		if x := r.MustColumn("r_x").Get(i); x < 90 {
			want += x * r.MustColumn("r_a").Get(i)
		}
	}
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func refGroup(db *storage.Database, sel int64) map[int64]int64 {
	r := db.MustTable("r")
	out := map[int64]int64{}
	for i := 0; i < r.Rows(); i++ {
		if r.MustColumn("r_x").Get(i) < sel {
			out[r.MustColumn("r_c").Get(i)] += r.MustColumn("r_a").Get(i)
		}
	}
	return out
}

func TestGroupAggAllRegimes(t *testing.T) {
	// Small group count -> masking; huge group count at low selectivity
	// -> hybrid. Results must match the reference in every regime.
	for _, tc := range []struct {
		ccard int
		sel   int64
	}{
		{8, 90}, {8, 5}, {5000, 50}, {30000, 10}, {30000, 95},
	} {
		db := testDB(t, 40_000, 10, tc.ccard)
		e := NewEngine(db)
		got, ex, err := groupsOnce(e.PrepareGroupAgg(GroupAgg{
			Table: "r", Filter: lt("r_x", tc.sel),
			Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a"),
		}))
		if err != nil {
			t.Fatal(err)
		}
		want := refGroup(db, tc.sel)
		if len(got) != len(want) {
			t.Errorf("card=%d sel=%d (%s): %d groups, want %d", tc.ccard, tc.sel, ex.Technique, len(got), len(want))
			continue
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("card=%d sel=%d (%s): group %d = %d, want %d", tc.ccard, tc.sel, ex.Technique, k, got[k], v)
				break
			}
		}
	}
}

func TestGroupAggDecisions(t *testing.T) {
	// Small table, high selectivity: a masking technique.
	db := testDB(t, 40_000, 10, 8)
	e := NewEngine(db)
	_, ex, err := groupsOnce(e.PrepareGroupAgg(GroupAgg{Table: "r", Filter: lt("r_x", 90), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Technique == TechHybrid {
		t.Errorf("small table at 90%%: got hybrid, want masking")
	}
	if ex.Groups < 6 || ex.Groups > 10 {
		t.Errorf("group estimate %d for true 8", ex.Groups)
	}
}

func TestSemiJoinAgg(t *testing.T) {
	db := testDB(t, 20_000, 500, 10)
	e := NewEngine(db)
	for _, tc := range []struct{ selR, selS int64 }{{10, 90}, {90, 10}, {100, 100}, {0, 50}} {
		got, ex, err := sumOnce(e, semiSpec(SemiJoinAgg{
			Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
			ProbeFilter: lt("r_x", tc.selR),
			BuildFilter: lt("s_x", tc.selS),
			Agg:         expr.NewCol("r_a"),
		}))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Technique != TechPositionalBitmap {
			t.Errorf("technique=%s", ex.Technique)
		}
		// Reference.
		r, s := db.MustTable("r"), db.MustTable("s")
		qual := make([]bool, s.Rows())
		for i := 0; i < s.Rows(); i++ {
			qual[i] = s.MustColumn("s_x").Get(i) < tc.selS
		}
		var want int64
		for i := 0; i < r.Rows(); i++ {
			if r.MustColumn("r_x").Get(i) < tc.selR && qual[r.MustColumn("r_fk").Get(i)] {
				want += r.MustColumn("r_a").Get(i)
			}
		}
		if got != want {
			t.Errorf("selR=%d selS=%d: got %d, want %d", tc.selR, tc.selS, got, want)
		}
	}
}

func TestGroupJoinAggBothPaths(t *testing.T) {
	// Both plans — eager aggregation and the positional-bitmap probe — against
	// the reference, for a tiny and a larger S.
	for _, nS := range []int{100, 5000} {
		db := testDB(t, 30_000, nS, 10)
		r, s := db.MustTable("r"), db.MustTable("s")
		qual := make([]bool, s.Rows())
		for i := 0; i < s.Rows(); i++ {
			qual[i] = s.MustColumn("s_x").Get(i) < 50
		}
		want := map[int64]int64{}
		for i := 0; i < r.Rows(); i++ {
			fk := r.MustColumn("r_fk").Get(i)
			if qual[fk] {
				want[fk] += r.MustColumn("r_a").Get(i)
			}
		}
		for _, plan := range groupjoinPlans {
			e := NewEngine(db)
			plan.tune(e)
			got, ex, err := groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{
				Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
				BuildFilter: lt("s_x", 50),
				Agg:         expr.NewCol("r_a"),
			}))
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ex.Technique != plan.want {
				t.Errorf("nS=%d: technique %s, want %s", nS, ex.Technique, plan.want)
			}
			sameGroups(t, fmt.Sprintf("nS=%d %s", nS, plan.want), got, want)
		}
	}
	// Small S must choose eager aggregation (paper Fig 12a).
	db := testDB(t, 30_000, 100, 10)
	e := NewEngine(db)
	_, ex, _ := groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
		BuildFilter: lt("s_x", 50), Agg: expr.NewCol("r_a"),
	}))
	if ex.Technique != TechEagerAggregation {
		t.Errorf("small S chose %s, want eager-aggregation", ex.Technique)
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t, 100, 10, 5)
	e := NewEngine(db)
	if _, _, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "zz", Agg: expr.NewCol("r_a")})); err == nil {
		t.Error("unknown table accepted")
	}
	if _, _, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Agg: expr.NewCol("zz")})); err == nil {
		t.Error("unknown column accepted")
	}
	if _, _, err := groupsOnce(e.PrepareGroupAgg(GroupAgg{Table: "r", Key: expr.NewCol("zz"), Agg: expr.NewCol("r_a")})); err == nil {
		t.Error("unknown key accepted")
	}
	if _, _, err := sumOnce(e, semiSpec(SemiJoinAgg{Probe: "r", Build: "s", FK: "zz", PK: "s_pk", Agg: expr.NewCol("r_a")})); err == nil {
		t.Error("unknown fk accepted")
	}
	if _, _, err := groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{Probe: "zz", Build: "s", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_a")})); err == nil {
		t.Error("unknown probe accepted")
	}
	q := Select{Root: "r", GroupBy: []string{"r_fk"}, Aggs: []SelectAgg{{Kind: AggSum, Arg: expr.NewCol("r_a"), As: "s"}},
		Project: []SelectProj{{Expr: expr.NewCol("s"), As: "s"}}, Order: []plan.SortKey{{Col: "r_fk"}}}
	if _, err := e.Prepare(q); err == nil {
		t.Error("ORDER BY a column outside the projection accepted")
	}
}

func TestTechniqueStrings(t *testing.T) {
	names := map[Technique]string{
		TechHybrid: "hybrid", TechValueMasking: "value-masking",
		TechKeyMasking: "key-masking", TechAccessMerging: "access-merging",
		TechPositionalBitmap: "positional-bitmap", TechEagerAggregation: "eager-aggregation",
	}
	for tech, want := range names {
		if tech.String() != want {
			t.Errorf("%d: %s != %s", tech, tech.String(), want)
		}
	}
}

func TestExplainString(t *testing.T) {
	ex := Explain{Technique: TechValueMasking, Selectivity: 0.5}
	if ex.String() == "" {
		t.Error("empty explain")
	}
}
