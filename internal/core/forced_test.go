package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

func TestScalarAggForcedAllTechniquesAgree(t *testing.T) {
	db := testDB(t, 20_000, 100, 10)
	e := NewEngine(db)
	q := ScalarAgg{Table: "r", Filter: lt("r_x", 40), Agg: expr.NewCol("r_a")}
	want := refScalar(db, 40)
	for _, tech := range []Technique{TechHybrid, TechValueMasking} {
		got, err := forcedScalar(e, q, tech)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if got != want {
			t.Errorf("%s: got %d, want %d", tech, got, want)
		}
	}
	// No filter.
	nf := ScalarAgg{Table: "r", Agg: expr.NewCol("r_a")}
	a, _ := forcedScalar(e, nf, TechHybrid)
	b, _ := forcedScalar(e, nf, TechValueMasking)
	if a != b {
		t.Errorf("unfiltered mismatch: %d vs %d", a, b)
	}
}

func TestGroupAggForcedAllTechniquesAgree(t *testing.T) {
	db := testDB(t, 20_000, 100, 17)
	e := NewEngine(db)
	q := GroupAgg{Table: "r", Filter: lt("r_x", 65), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	want := refGroup(db, 65)
	for _, tech := range []Technique{TechHybrid, TechValueMasking, TechKeyMasking} {
		got, err := forcedGroups(e, q, tech)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", tech, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: group %d = %d, want %d", tech, k, got[k], v)
			}
		}
	}
}

// TestForcedKeyMaskingCountsTiles: a forced key-masking plan names its key
// masking loop in Explain.Kernel on both table forms — on the key-addressed
// (packed) table the one-sum record, whose rejected lanes reach the throwaway
// record by slot arithmetic with no masked key vector, each counted there as
// the paper's throwaway entry counts it; on the hashed one the lane passes,
// handed keys masked to ht.NullKey — and answers as the reference does.
func TestForcedKeyMaskingCountsTiles(t *testing.T) {
	db := testDB(t, 20_000, 100, 17)
	sparse := testDB(t, 20_000, 100, 17)
	appendKeys(t, sparse, 1<<40) // one far key: the table is hashed
	q := GroupAgg{Table: "r", Filter: lt("r_x", 65), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	x := db.MustTable("r").MustColumn("r_x")
	rejected := int64(0)
	for i := range x.Len() {
		if x.Get(i) >= 65 {
			rejected++
		}
	}
	for _, c := range []struct {
		name, kernel string
		db           *storage.Database
		dense        bool
	}{{"key-addressed", "sum1(i8;i8)/packed/key", db, true}, {"hashed", "lanes(i64)/hashed/key", sparse, false}} {
		e := NewEngine(c.db)
		e.Workers = 1 // one table: its throwaway record saw every rejected row
		p, err := e.PrepareForced(groupSpec(q), TechKeyMasking)
		if err != nil {
			t.Fatal(err)
		}
		res, ex, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ex.Technique != TechKeyMasking || (ex.DenseDomain > 0) != c.dense || ex.Kernel != c.kernel {
			t.Errorf("%s: %s, DenseDomain %d, kernel %s; want kernel %s", c.name, ex.Technique, ex.DenseDomain, ex.Kernel, c.kernel)
		}
		if tw := p.tab.Count(-1); c.dense && tw != rejected {
			t.Errorf("%s: throwaway record counted %d rows, want the %d rejected", c.name, tw, rejected)
		}
		sameGroups(t, c.name, resultMap(res), refGroup(c.db, 65))
		e.Close()
	}
}

func TestForcedErrors(t *testing.T) {
	db := testDB(t, 100, 10, 5)
	e := NewEngine(db)
	if _, err := forcedScalar(e, ScalarAgg{Table: "zz", Agg: expr.NewCol("r_a")}, TechHybrid); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := forcedScalar(e, ScalarAgg{Table: "r", Agg: expr.NewCol("zz")}, TechHybrid); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := forcedScalar(e, ScalarAgg{Table: "r", Filter: lt("zz", 1), Agg: expr.NewCol("r_a")}, TechHybrid); err == nil {
		t.Error("unknown filter column accepted")
	}
	for _, tech := range []Technique{TechPositionalBitmap, TechAccessMerging} { // labels, not kernels
		if _, err := forcedScalar(e, ScalarAgg{Table: "r", Agg: expr.NewCol("r_a")}, tech); err == nil {
			t.Errorf("inapplicable technique %s accepted", tech)
		}
	}
	gq := GroupAgg{Table: "r", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	if _, err := forcedGroups(e, gq, TechPositionalBitmap); err == nil {
		t.Error("inapplicable group technique accepted")
	}
	if _, err := forcedGroups(e, GroupAgg{Table: "zz", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}, TechHybrid); err == nil {
		t.Error("unknown group table accepted")
	}
	if _, err := forcedGroups(e, GroupAgg{Table: "r", Key: expr.NewCol("zz"), Agg: expr.NewCol("r_a")}, TechHybrid); err == nil {
		t.Error("unknown group key accepted")
	}
}

func TestSemiJoinAggSparseBuild(t *testing.T) {
	// A ~2% build side: nearly every word of the edge bitmap is stored
	// zero, and nearly every probe lane is masked.
	db := testDB(t, 20_000, 2_000, 10)
	e := NewEngine(db)
	got, _, err := sumOnce(e, semiSpec(SemiJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
		BuildFilter: lt("s_x", 2), // ~2%
		Agg:         expr.NewCol("r_a"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	r, s := db.MustTable("r"), db.MustTable("s")
	qual := make([]bool, s.Rows())
	for i := 0; i < s.Rows(); i++ {
		qual[i] = s.MustColumn("s_x").Get(i) < 2
	}
	var want int64
	for i := 0; i < r.Rows(); i++ {
		if qual[r.MustColumn("r_fk").Get(i)] {
			want += r.MustColumn("r_a").Get(i)
		}
	}
	if got != want {
		t.Errorf("sparse build path: got %d, want %d", got, want)
	}
}

func TestSemiJoinAggNoFilters(t *testing.T) {
	db := testDB(t, 5_000, 100, 10)
	e := NewEngine(db)
	got, _, err := sumOnce(e, semiSpec(SemiJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_a"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := refScalar(db, 1<<30) // everything
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func TestGroupJoinAggNoFilter(t *testing.T) {
	db := testDB(t, 5_000, 50, 10)
	e := NewEngine(db)
	got, ex, err := groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_a"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustTable("r")
	want := map[int64]int64{}
	for i := 0; i < r.Rows(); i++ {
		want[r.MustColumn("r_fk").Get(i)] += r.MustColumn("r_a").Get(i)
	}
	if len(got) != len(want) {
		t.Fatalf("(%s) %d groups, want %d", ex.Technique, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %d: %d vs %d", k, got[k], v)
		}
	}
}

// TestGroupAggHybridVectorKernel pins the hybrid kernel's tile-at-a-time
// materialization where the bare-column gather does not apply — a product
// argument — at sparse, mid and dense selectivities, forced and as the cost
// model compiles it at two workers, cold and warm. The bare-column statement
// runs beside it so the sparse gather and the compaction are checked against
// one reference.
func TestGroupAggHybridVectorKernel(t *testing.T) {
	db := testDB(t, 60_000, 10, 3000)
	r := db.MustTable("r")
	x, a, c := r.MustColumn("r_x"), r.MustColumn("r_a"), r.MustColumn("r_c")
	e := NewEngine(db)
	defer e.Close()
	e.Workers = 2
	for _, computed := range []bool{true, false} {
		for _, sel := range []int64{5, 50, 95} {
			q := GroupAgg{Table: "r", Filter: lt("r_x", sel), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
			if computed {
				q.Agg = &expr.Arith{Op: expr.Mul, L: expr.NewCol("r_a"), R: expr.NewCol("r_x")}
			}
			want := map[int64]int64{}
			for i := 0; i < r.Rows(); i++ {
				if x.Get(i) >= sel {
					continue
				}
				if computed {
					want[c.Get(i)] += a.Get(i) * x.Get(i)
				} else {
					want[c.Get(i)] += a.Get(i)
				}
			}
			tag := fmt.Sprintf("computed=%v sel=%d", computed, sel)
			forced, err := forcedGroups(e, q, TechHybrid)
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, tag+" hybrid", forced, want)
			p, err := e.PrepareGroupAgg(q)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				res, _, err := p.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				sameGroups(t, fmt.Sprintf("%s prepared run %d", tag, rep), groupMap(res), want)
			}
		}
	}
}
