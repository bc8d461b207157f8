package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// parallelDB builds an R/S database whose r_x column has cardinality 1000
// so predicates can express the 0.1% selectivity point of the merge-phase
// test matrix.
func parallelDB(t *testing.T, nR, nS, ccard int) *storage.Database {
	t.Helper()
	rng := uint64(7)
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
		x[i] = next(1000)
		a[i] = next(50) + 1
		c[i] = next(max(ccard, 1))
		if nS > 0 {
			fk[i] = next(nS)
		}
	}
	spk := make([]int64, nS)
	sx := make([]int64, nS)
	for i := 0; i < nS; i++ {
		spk[i] = int64(i)
		sx[i] = next(1000)
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
	if err := db.AddFKIndex("r", "r_fk", "s", "s_pk"); err != nil {
		t.Fatal(err)
	}
	return db
}

// engineAt returns an engine over db pinned to a worker count, with small
// morsels so even unit-test-sized tables span many morsels. The engine's
// worker gang is released when the test finishes.
func engineAt(t testing.TB, db *storage.Database, workers int) *Engine {
	e := NewEngine(db)
	e.Workers = workers
	e.MorselRows = 2 * vec.TileSize
	t.Cleanup(e.Close)
	return e
}

// selPoints are the satellite test matrix: selectivities 0.001, 0.1, 0.9
// expressed as thresholds on the cardinality-1000 r_x/s_x columns.
var selPoints = []int64{1, 100, 900}

// workerCounts spans the sequential engine, an even split, an odd split
// that leaves worker counts and morsel counts coprime, and more workers
// than morsels for the smallest tables.
var workerCounts = []int{1, 2, 3, 7, 16}

func TestScalarAggWorkersIdentical(t *testing.T) {
	db := parallelDB(t, 30_000, 100, 10)
	for _, sel := range selPoints {
		q := ScalarAgg{Table: "r", Filter: lt("r_x", sel), Agg: expr.NewCol("r_a")}
		base, ex, err := sumOnce(engineAt(t, db, 1), scalarSpec(q))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Workers != 1 {
			t.Errorf("sel=%d: explain reports %d workers, want 1", sel, ex.Workers)
		}
		for _, w := range workerCounts[1:] {
			got, ex, err := sumOnce(engineAt(t, db, w), scalarSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			if got != base {
				t.Errorf("sel=%d workers=%d (%s): got %d, want %d", sel, w, ex.Technique, got, base)
			}
			if ex.Workers != w {
				t.Errorf("sel=%d: explain reports %d workers, want %d", sel, ex.Workers, w)
			}
		}
	}
}

// The Params tunings pin the scalar decision, so both techniques of the
// tile pipeline run on the gang regardless of what the sampled selectivity
// makes the model choose.
func TestScalarAggWorkersIdenticalForcedTechniques(t *testing.T) {
	db := parallelDB(t, 30_000, 100, 10)
	for _, force := range []struct {
		name string
		tune func(*Engine)
	}{
		{"value-masking", func(e *Engine) { e.Params.ReadCond = 1e9 }},
		{"hybrid", func(e *Engine) { e.Params.ReadCond = 0; e.Params.SelVec = 0 }},
	} {
		for _, sel := range selPoints {
			q := ScalarAgg{Table: "r", Filter: lt("r_x", sel), Agg: expr.NewCol("r_a")}
			ref := engineAt(t, db, 1)
			force.tune(ref)
			base, exBase, err := sumOnce(ref, scalarSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts[1:] {
				e := engineAt(t, db, w)
				force.tune(e)
				got, ex, err := sumOnce(e, scalarSpec(q))
				if err != nil {
					t.Fatal(err)
				}
				if ex.Technique != exBase.Technique {
					t.Errorf("%s sel=%d workers=%d: technique %s != %s", force.name, sel, w, ex.Technique, exBase.Technique)
				}
				if got != base {
					t.Errorf("%s sel=%d workers=%d: got %d, want %d", force.name, sel, w, got, base)
				}
			}
		}
	}
}

func TestGroupAggWorkersIdentical(t *testing.T) {
	// The three Params tunings force hybrid, value masking, and key
	// masking respectively, so every parallel merge path is exercised at
	// every selectivity point.
	for _, force := range []struct {
		name string
		tune func(*Engine)
	}{
		{"planner-choice", func(e *Engine) {}},
		{"hybrid", func(e *Engine) { e.Params.ReadCond = 0; e.Params.SelVec = 0 }},
		{"value-masking", func(e *Engine) { e.Params.ReadCond = 1e9; e.Params.HTNull = 1e9 }},
		{"key-masking", func(e *Engine) { e.Params.ReadCond = 1e9; e.Params.CompMul = 1e9 }},
	} {
		for _, ccard := range []int{8, 3000} {
			db := parallelDB(t, 40_000, 100, ccard)
			for _, sel := range selPoints {
				q := GroupAgg{Table: "r", Filter: lt("r_x", sel), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
				ref := engineAt(t, db, 1)
				force.tune(ref)
				base, exBase, err := groupsOnce(ref.PrepareGroupAgg(q))
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts[1:] {
					e := engineAt(t, db, w)
					force.tune(e)
					got, ex, err := groupsOnce(e.PrepareGroupAgg(q))
					if err != nil {
						t.Fatal(err)
					}
					if ex.Technique != exBase.Technique {
						t.Errorf("%s card=%d sel=%d workers=%d: technique %s != %s",
							force.name, ccard, sel, w, ex.Technique, exBase.Technique)
					}
					if !reflect.DeepEqual(got, base) {
						t.Errorf("%s card=%d sel=%d workers=%d (%s): %d groups vs %d; maps differ",
							force.name, ccard, sel, w, ex.Technique, len(got), len(base))
					}
				}
			}
		}
	}
}

func TestSemiJoinAggWorkersIdentical(t *testing.T) {
	// Workers write word-disjoint ranges of the one shared edge bitmap:
	// 10,000 build rows are five morsels here, the last one short and ending
	// mid-word, from a 0.1% build side to a 90% one.
	db := parallelDB(t, 30_000, 10_000, 10)
	for _, selS := range selPoints {
		for _, selR := range selPoints {
			q := SemiJoinAgg{
				Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
				ProbeFilter: lt("r_x", selR),
				BuildFilter: lt("s_x", selS),
				Agg:         expr.NewCol("r_a"),
			}
			base, _, err := sumOnce(engineAt(t, db, 1), semiSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts[1:] {
				got, _, err := sumOnce(engineAt(t, db, w), semiSpec(q))
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Errorf("selS=%d selR=%d workers=%d: got %d, want %d", selS, selR, w, got, base)
				}
			}
		}
	}
}

// TestGroupJoinAggWorkersIdentical: both groupjoin plans scan on the gang —
// their group tables are key-addressed and merge by addition — and answer
// the same at every worker count.
func TestGroupJoinAggWorkersIdentical(t *testing.T) {
	for _, plan := range groupjoinPlans {
		db := parallelDB(t, 30_000, 2_000, 10)
		for _, sel := range selPoints {
			q := GroupJoinAgg{
				Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
				BuildFilter: lt("s_x", sel),
				Agg:         expr.NewCol("r_a"),
			}
			ref := engineAt(t, db, 1)
			plan.tune(ref)
			base, exBase, err := groupsOnce(ref.PrepareGroupJoinAgg(q))
			if err != nil {
				t.Fatal(err)
			}
			if exBase.Technique != plan.want {
				t.Fatalf("sel=%d: tuning chose %s, want %s", sel, exBase.Technique, plan.want)
			}
			for _, w := range workerCounts[1:] {
				e := engineAt(t, db, w)
				plan.tune(e)
				got, ex, err := groupsOnce(e.PrepareGroupJoinAgg(q))
				if err != nil {
					t.Fatal(err)
				}
				if ex.Technique != plan.want || ex.Workers != w {
					t.Errorf("%s sel=%d workers=%d: technique %s on %d workers", plan.want, sel, w, ex.Technique, ex.Workers)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s sel=%d workers=%d: %d groups vs %d; maps differ",
						plan.want, sel, w, len(got), len(base))
				}
			}
		}
	}
}

func TestParallelEmptyTables(t *testing.T) {
	db := parallelDB(t, 0, 0, 1)
	for _, w := range workerCounts {
		e := engineAt(t, db, w)
		sum, _, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 100), Agg: expr.NewCol("r_a")}))
		if err != nil || sum != 0 {
			t.Errorf("workers=%d: scalar agg over empty table = %d, %v", w, sum, err)
		}
		groups, _, err := groupsOnce(e.PrepareGroupAgg(GroupAgg{Table: "r", Filter: lt("r_x", 100), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}))
		if err != nil || len(groups) != 0 {
			t.Errorf("workers=%d: group agg over empty table = %v, %v", w, groups, err)
		}
		sum, _, err = sumOnce(e, semiSpec(SemiJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_a")}))
		if err != nil || sum != 0 {
			t.Errorf("workers=%d: semijoin over empty tables = %d, %v", w, sum, err)
		}
		groups, _, err = groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_a")}))
		if err != nil || len(groups) != 0 {
			t.Errorf("workers=%d: groupjoin over empty tables = %v, %v", w, groups, err)
		}
	}
}

func TestParallelSingleMorsel(t *testing.T) {
	// 100 rows fit a single morsel even at the smallest morsel size, so
	// the pool must fall back to one worker and still merge correctly.
	db := parallelDB(t, 100, 10, 4)
	q := ScalarAgg{Table: "r", Filter: lt("r_x", 500), Agg: expr.NewCol("r_a")}
	base, _, err := sumOnce(engineAt(t, db, 1), scalarSpec(q))
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := sumOnce(engineAt(t, db, 16), scalarSpec(q))
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("single morsel at 16 workers: got %d, want %d", got, base)
	}
	if ex.Workers != 16 {
		t.Errorf("explain workers = %d", ex.Workers)
	}
	gq := GroupAgg{Table: "r", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	gbase, _, err := groupsOnce(engineAt(t, db, 1).PrepareGroupAgg(gq))
	if err != nil {
		t.Fatal(err)
	}
	ggot, _, err := groupsOnce(engineAt(t, db, 16).PrepareGroupAgg(gq))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ggot, gbase) {
		t.Errorf("single morsel group agg differs: %v vs %v", ggot, gbase)
	}
}

func TestErrorSentinelsWrapped(t *testing.T) {
	db := parallelDB(t, 100, 10, 4)
	e := NewEngine(db)
	_, _, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "zz", Agg: expr.NewCol("r_a")}))
	if !errors.Is(err, ErrNoTable) {
		t.Errorf("ScalarAgg unknown table: errors.Is(err, ErrNoTable) false for %v", err)
	}
	_, _, err = groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{Probe: "r", Build: "zz", FK: "r_fk", PK: "s_pk", Agg: expr.NewCol("r_a")}))
	if !errors.Is(err, ErrNoTable) {
		t.Errorf("GroupJoinAgg unknown build: errors.Is(err, ErrNoTable) false for %v", err)
	}
	_, _, err = sumOnce(e, semiSpec(SemiJoinAgg{Probe: "r", Build: "s", FK: "zz", PK: "s_pk", Agg: expr.NewCol("r_a")}))
	if !errors.Is(err, ErrNoColumn) {
		t.Errorf("SemiJoinAgg unknown fk: errors.Is(err, ErrNoColumn) false for %v", err)
	}
	_, _, err = groupsOnce(e.PrepareGroupJoinAgg(GroupJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "zz", Agg: expr.NewCol("r_a")}))
	if !errors.Is(err, ErrNoColumn) {
		t.Errorf("GroupJoinAgg unknown pk: errors.Is(err, ErrNoColumn) false for %v", err)
	}
}

// TestSelectScratchSurvivesReconfigure pins the tile scratch binding: every
// tile-pipeline plan runs on the engine's one scratch set, which a compile at
// a higher worker count grows — and may move. Plan A is compiled at one
// worker, the engine reconfigured to four, plan B compiled (growing the
// scratch under A), and then A, B, A run: each on the worker count it was
// compiled for, each correct, and A's kernel-variant counts the same before
// and after B ran on the shared states.
func TestSelectScratchSurvivesReconfigure(t *testing.T) {
	db := parallelDB(t, 30_000, 2_000, 10)
	e := engineAt(t, db, 1)
	qa := ScalarAgg{Table: "r", Filter: lt("r_x", 400), Agg: expr.NewCol("r_a")}
	qb := SemiJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
		ProbeFilter: lt("r_x", 900), BuildFilter: lt("s_x", 500), Agg: expr.NewCol("r_a"),
	}
	wantA, _, err := sumOnce(engineAt(t, db, 1), scalarSpec(qa))
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := sumOnce(engineAt(t, db, 1), semiSpec(qb))
	if err != nil {
		t.Fatal(err)
	}
	runA, err := sumRunner(e, scalarSpec(qa))
	if err != nil {
		t.Fatal(err)
	}
	e.Reconfigure(func() { e.Workers = 4 })
	runB, err := sumRunner(e, semiSpec(qb))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.genStates) != 4 {
		t.Fatalf("scratch holds %d worker states after a 4-worker compile", len(e.genStates))
	}
	gotA, exA := runA()
	gotB, exB := runB()
	gotA2, exA2 := runA()
	if gotA != wantA || gotA2 != wantA || gotB != wantB {
		t.Errorf("A=%d, B=%d, A again=%d; want %d, %d, %d", gotA, gotB, gotA2, wantA, wantB, wantA)
	}
	if exA.Workers != 1 || exB.Workers != 4 || exA2.Workers != 1 {
		t.Errorf("workers A=%d B=%d A again=%d, want 1, 4, 1", exA.Workers, exB.Workers, exA2.Workers)
	}
	if exA.Variants.Total() == 0 || exA.Variants != exA2.Variants {
		t.Errorf("A's variants %+v before B ran, %+v after", exA.Variants, exA2.Variants)
	}
}
