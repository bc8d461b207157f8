package core

import (
	"testing"

	"github.com/reprolab/swole/internal/expr"
)

func TestScalarAggForcedAllTechniquesAgree(t *testing.T) {
	db := testDB(t, 20_000, 100, 10)
	e := NewEngine(db)
	q := ScalarAgg{Table: "r", Filter: lt("r_x", 40), Agg: expr.NewCol("r_a")}
	want := refScalar(db, 40)
	for _, tech := range []Technique{TechDataCentric, TechHybrid, TechValueMasking} {
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
	a, _ := forcedScalar(e, nf, TechDataCentric)
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
	for _, tech := range []Technique{TechDataCentric, TechHybrid, TechValueMasking, TechKeyMasking} {
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

// TestGroupAggHybridVectorKernel pins the hybrid kernels' tile-at-a-time
// materialization where the bare-column gather does not apply: a computed key
// (r_c + 1) and a product argument, at sparse, mid and dense selectivities,
// on the direct table and through the radix scatter (one kernel under every
// technique). The bare-column
// statement runs beside it so the sparse gather and the compaction are
// checked against one reference.
func TestGroupAggHybridVectorKernel(t *testing.T) {
	db := testDB(t, 60_000, 10, 3000)
	r := db.MustTable("r")
	x, a, c := r.MustColumn("r_x"), r.MustColumn("r_a"), r.MustColumn("r_c")
	for _, computed := range []bool{true, false} {
		for _, sel := range []int64{5, 50, 95} {
			q := GroupAgg{Table: "r", Filter: lt("r_x", sel), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
			if computed {
				q.Key = &expr.Arith{Op: expr.Add, L: expr.NewCol("r_c"), R: &expr.Const{Val: 1}}
				q.Agg = &expr.Arith{Op: expr.Mul, L: expr.NewCol("r_a"), R: expr.NewCol("r_x")}
			}
			want := map[int64]int64{}
			for i := 0; i < r.Rows(); i++ {
				if x.Get(i) >= sel {
					continue
				}
				if computed {
					want[c.Get(i)+1] += a.Get(i) * x.Get(i)
				} else {
					want[c.Get(i)] += a.Get(i)
				}
			}
			tag := "computed=" + map[bool]string{true: "yes", false: "no"}[computed] + " sel=" + itoa(int(sel))

			e := NewEngine(db)
			e.Workers = 2
			direct, _, err := groupsOnce(e.compileGroupAgg(q, TechHybrid))
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, tag+" direct", direct, want)

			e.Partition = PartitionOn
			p, err := e.PrepareGroupAgg(q)
			if err != nil {
				t.Fatal(err)
			}
			if !p.partitioned {
				t.Fatalf("%s: PartitionOn compiled a direct plan", tag)
			}
			for rep := 0; rep < 2; rep++ {
				res, _, err := p.RunContext(nil)
				if err != nil {
					t.Fatal(err)
				}
				sameGroups(t, tag+" partitioned", groupMap(res), want)
			}
			e.Close()
		}
	}
}
