package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/expr"
)

// TestPreparedScalarParity checks a prepared scalar aggregation returns
// a single-run plan's answers run after run, at one worker and several.
func TestPreparedScalarParity(t *testing.T) {
	db := testDB(t, 50_000, 100, 10)
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		defer e.Close()
		for _, sel := range []int64{1, 30, 95} {
			q := ScalarAgg{Table: "r", Filter: lt("r_x", sel), Agg: expr.NewCol("r_a")}
			want, wantEx, err := sumOnce(e, scalarSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			run, err := sumRunner(e, scalarSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				got, ex := run()
				if got != want {
					t.Errorf("workers=%d sel=%d rep=%d: got %d, want %d", workers, sel, rep, got, want)
				}
				if ex.Technique != wantEx.Technique {
					t.Errorf("workers=%d sel=%d: prepared technique %s, first run %s", workers, sel, ex.Technique, wantEx.Technique)
				}
				if !ex.PlanCached {
					t.Error("prepared Explain should report PlanCached")
				}
			}
		}
	}
}

// TestPreparedGroupAggParity checks the prepared group-by aggregation
// against a single-run plan's result, across techniques and worker counts.
func TestPreparedGroupAggParity(t *testing.T) {
	for _, ccard := range []int{10, 3000} {
		db := testDB(t, 50_000, 100, ccard)
		for _, workers := range []int{1, 4} {
			e := NewEngine(db)
			e.Workers = workers
			e.MorselRows = 4096
			defer e.Close()
			for _, sel := range []int64{5, 60} {
				q := GroupAgg{Table: "r", Filter: lt("r_x", sel), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
				want, wantEx, err := groupsOnce(e.PrepareGroupAgg(q))
				if err != nil {
					t.Fatal(err)
				}
				p, err := e.PrepareGroupAgg(q)
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 3; rep++ {
					res, ex, _ := p.RunContext(context.Background())
					if ex.Technique != wantEx.Technique {
						t.Errorf("ccard=%d workers=%d sel=%d: technique %s, first run %s", ccard, workers, sel, ex.Technique, wantEx.Technique)
					}
					if res.Len() != len(want) {
						t.Fatalf("ccard=%d workers=%d sel=%d rep=%d: %d groups, want %d", ccard, workers, sel, rep, res.Len(), len(want))
					}
					for i := 0; i < res.Len(); i++ {
						k := res.Key(i)
						if i > 0 && res.Key(i-1) >= k {
							t.Fatalf("keys not strictly ascending at %d", i)
						}
						if res.Sum(i) != want[k] {
							t.Errorf("ccard=%d workers=%d sel=%d key=%d: sum %d, want %d", ccard, workers, sel, k, res.Sum(i), want[k])
						}
					}
				}
			}
		}
	}
}

// TestPreparedSemiJoinParity checks the prepared semijoin at both build
// variants (selective and unselective build predicate).
func TestPreparedSemiJoinParity(t *testing.T) {
	db := testDB(t, 50_000, 1000, 10)
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		defer e.Close()
		for _, buildSel := range []int64{2, 60} {
			q := SemiJoinAgg{
				Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
				ProbeFilter: lt("r_x", 50), BuildFilter: lt("s_x", buildSel),
				Agg: expr.NewCol("r_a"),
			}
			want, _, err := sumOnce(e, semiSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			run, err := sumRunner(e, semiSpec(q))
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				got, _ := run()
				if got != want {
					t.Errorf("workers=%d buildSel=%d rep=%d: got %d, want %d", workers, buildSel, rep, got, want)
				}
			}
		}
	}
}

// groupjoinPlans steer the groupjoin's cost-model choice: a dear L1 access
// prices the positional-bitmap plan's per-row probe out, and dear deletes the
// eager model's parent pass.
var groupjoinPlans = []struct {
	want Technique
	tune func(*Engine)
}{
	{TechEagerAggregation, func(e *Engine) { e.Params.HitL1 = 1e6 }},
	{TechPositionalBitmap, func(e *Engine) { e.Params.DeleteMul = 1e9 }},
}

// TestPreparedGroupJoinAggParity checks the prepared groupjoin under both of
// its plans against a single-run plan's result, run after run, in ascending
// key order.
func TestPreparedGroupJoinAggParity(t *testing.T) {
	db := testDB(t, 50_000, 1000, 10)
	for _, workers := range []int{1, 4} {
		for _, plan := range groupjoinPlans {
			for _, buildSel := range []int64{2, 95} {
				e := NewEngine(db)
				e.Workers = workers
				e.MorselRows = 4096
				plan.tune(e)
				defer e.Close()
				q := GroupJoinAgg{
					Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
					BuildFilter: lt("s_x", buildSel), Agg: expr.NewCol("r_a"),
				}
				tag := fmt.Sprintf("workers=%d %s buildSel=%d", workers, plan.want, buildSel)
				want, _, err := groupsOnce(e.PrepareGroupJoinAgg(q))
				if err != nil {
					t.Fatal(err)
				}
				p, err := e.PrepareGroupJoinAgg(q)
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 3; rep++ {
					res, ex, err := p.RunContext(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if ex.Technique != plan.want {
						t.Errorf("%s: technique %s", tag, ex.Technique)
					}
					if res.Len() != len(want) {
						t.Fatalf("%s rep=%d: %d groups, want %d", tag, rep, res.Len(), len(want))
					}
					for i := 0; i < res.Len(); i++ {
						k := res.Key(i)
						if i > 0 && res.Key(i-1) >= k {
							t.Fatalf("%s: keys not strictly ascending at %d", tag, i)
						}
						if res.Sum(i) != want[k] {
							t.Errorf("%s key=%d: sum %d, want %d", tag, k, res.Sum(i), want[k])
						}
					}
				}
			}
		}
	}
}

// TestPreparedZeroAlloc is the tentpole gate: the second and later runs of
// a prepared scalar aggregation, group aggregation, and semijoin must not
// allocate, at one worker and at four.
func TestPreparedZeroAlloc(t *testing.T) {
	db := testDB(t, 64_000, 1000, 100)
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		defer e.Close()

		scalar, err := sumRunner(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 50), Agg: expr.NewCol("r_a")}))
		if err != nil {
			t.Fatal(err)
		}
		group, err := e.PrepareGroupAgg(GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")})
		if err != nil {
			t.Fatal(err)
		}
		semi, err := sumRunner(e, semiSpec(SemiJoinAgg{
			Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
			ProbeFilter: lt("r_x", 50), BuildFilter: lt("s_x", 50),
			Agg: expr.NewCol("r_a"),
		}))
		if err != nil {
			t.Fatal(err)
		}

		// Warm run: evaluator scratch, result arrays, any under-estimated
		// hash capacity, and gang goroutine stacks all settle here.
		scalar()
		group.RunContext(context.Background())
		semi()

		if allocs := testing.AllocsPerRun(20, func() { scalar() }); allocs != 0 {
			t.Errorf("workers=%d: scalar Run allocates %.1f per run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { group.RunContext(context.Background()) }); allocs != 0 {
			t.Errorf("workers=%d: group Run allocates %.1f per run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { semi() }); allocs != 0 {
			t.Errorf("workers=%d: semijoin Run allocates %.1f per run, want 0", workers, allocs)
		}

		if _, ex, _ := group.RunContext(context.Background()); ex.HTGrows != 0 {
			t.Errorf("workers=%d: steady-state group run grew its hash tables %d times", workers, ex.HTGrows)
		}
	}
}

// TestPreparedZeroAllocCancelable: a warm run under a context that can be
// canceled — every served query's — allocates nothing either, for a plan on
// the engine's workers and a forced one, at one worker and at four.
func TestPreparedZeroAllocCancelable(t *testing.T) {
	db := testDB(t, 64_000, 1000, 100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		defer e.Close()
		spec := scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 50), Agg: expr.NewCol("r_a")})
		gang, err := e.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		forced, err := e.PrepareForced(groupSpec(GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}), TechKeyMasking)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*PreparedSelect{"gang": gang, "forced": forced} {
			if _, ex, err := p.RunContext(ctx); err != nil {
				t.Fatal(err)
			} else if want := map[string]int{"gang": workers, "forced": 1}[name]; ex.Workers != want {
				t.Errorf("workers=%d %s: ran on %d workers, want %d", workers, name, ex.Workers, want)
			}
			if allocs := testing.AllocsPerRun(20, func() { p.RunContext(ctx) }); allocs != 0 {
				t.Errorf("workers=%d %s: %.1f allocs per cancelable run, want 0", workers, name, allocs)
			}
		}
	}
}

// TestDefaultWorkersFollowGOMAXPROCS: an engine left at Workers = 0 runs on
// as many workers as the runtime may run Go code on, not one per CPU, so a
// process capped through GOMAXPROCS does not oversubscribe its cores.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := NewEngine(testDB(t, 10_000, 10, 10))
	defer e.Close()
	_, ex, err := sumOnce(e, scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 50), Agg: expr.NewCol("r_a")}))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Workers != 1 {
		t.Errorf("under GOMAXPROCS(1) on %d CPUs: a scalar plan ran on %d workers, want 1", runtime.NumCPU(), ex.Workers)
	}
}

// TestStatsCacheHits checks the second planning of a shape reports cached
// statistics and that invalidation brings sampling back.
func TestStatsCacheHits(t *testing.T) {
	db := testDB(t, 30_000, 100, 10)
	e := NewEngine(db)
	defer e.Close()
	q := GroupAgg{Table: "r", Filter: lt("r_x", 30), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	if _, ex, err := groupsOnce(e.PrepareGroupAgg(q)); err != nil || ex.StatsCached {
		t.Fatalf("first run: err=%v StatsCached=%v, want miss", err, ex.StatsCached)
	}
	if _, ex, err := groupsOnce(e.PrepareGroupAgg(q)); err != nil || !ex.StatsCached {
		t.Fatalf("second run: err=%v StatsCached=%v, want hit", err, ex.StatsCached)
	}
	if e.StatsCacheLen() == 0 {
		t.Fatal("stats cache empty after two runs")
	}
	e.InvalidateStats("r")
	if e.StatsCacheLen() != 0 {
		t.Fatalf("stats cache holds %d entries after invalidation", e.StatsCacheLen())
	}
	if _, ex, err := groupsOnce(e.PrepareGroupAgg(q)); err != nil || ex.StatsCached {
		t.Fatalf("post-invalidation run: err=%v StatsCached=%v, want miss", err, ex.StatsCached)
	}
}

// TestStatsCacheVersioned checks that replacing a table makes its cached
// statistics unreachable even without explicit invalidation.
func TestStatsCacheVersioned(t *testing.T) {
	db := testDB(t, 30_000, 100, 10)
	e := NewEngine(db)
	defer e.Close()
	q := ScalarAgg{Table: "r", Filter: lt("r_x", 30), Agg: expr.NewCol("r_a")}
	if _, _, err := sumOnce(e, scalarSpec(q)); err != nil {
		t.Fatal(err)
	}
	if _, ex, _ := sumOnce(e, scalarSpec(q)); !ex.StatsCached {
		t.Fatal("want stats hit before table replacement")
	}
	// Re-register r (same contents, new version): the old entry's version
	// no longer matches, so the next plan samples afresh.
	db.AddTable(db.MustTable("r"))
	if _, ex, _ := sumOnce(e, scalarSpec(q)); ex.StatsCached {
		t.Fatal("stats reported cached across a table replacement")
	}
}

// TestPoolRecycling checks a plan bills its compile's allocations to its
// first run only — FreshAllocs drops to zero on every later run of the
// same plan — and that HTGrows stays zero when the cardinality hint holds.
func TestPoolRecycling(t *testing.T) {
	db := testDB(t, 30_000, 100, 1000)
	e := NewEngine(db)
	e.Workers = 2
	defer e.Close()
	p, err := e.PrepareGroupAgg(GroupAgg{Table: "r", Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ex, _ := p.RunContext(context.Background()); ex.FreshAllocs == 0 {
		t.Fatal("first run should report fresh resource allocations")
	}
	for rep := 0; rep < 3; rep++ {
		_, ex, _ := p.RunContext(context.Background())
		if ex.FreshAllocs != 0 {
			t.Errorf("rep %d: %d fresh allocations on a warm plan", rep, ex.FreshAllocs)
		}
		if ex.HTGrows != 0 {
			t.Errorf("rep %d: %d hash growths despite cardinality hint", rep, ex.HTGrows)
		}
	}
}

// TestCompileCostReportedOnce: a plan's first run reports what its compile
// cost — the whole of it and the statistics lookups inside it — on the
// classic and the generic path alike, Explain.String prints it, and every
// later run of the plan, which compiled nothing, reports zero.
func TestCompileCostReportedOnce(t *testing.T) {
	db := testDB(t, 30_000, 100, 10)
	e := NewEngine(db)
	defer e.Close()
	classic := scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 30), Agg: expr.NewCol("r_a")})
	generic := classicSpec("r", lt("r_x", 31), []string{"r_c"}, nil, expr.NewCol("r_a"))
	generic.Aggs = append(generic.Aggs, SelectAgg{Kind: AggCount, As: "n"})
	generic.Project = append(generic.Project, SelectProj{Expr: expr.NewCol("n"), As: "n"})
	for name, spec := range map[string]Select{"classic": classic, "generic": generic} {
		p, err := e.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, ex, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ex.StatsTime <= 0 || ex.StatsTime > ex.PrepareTime {
			t.Errorf("%s: first run reports prepare=%s stats=%s, want 0 < stats <= prepare", name, ex.PrepareTime, ex.StatsTime)
		}
		if want := fmt.Sprintf("prepare=%s(stats=%s)", ex.PrepareTime, ex.StatsTime); !strings.Contains(ex.String(), want) {
			t.Errorf("%s: %q does not print %s", name, ex.String(), want)
		}
		if _, ex, _ = p.RunContext(context.Background()); ex.PrepareTime != 0 || ex.StatsTime != 0 {
			t.Errorf("%s: replay reports prepare=%s stats=%s", name, ex.PrepareTime, ex.StatsTime)
		}
	}
}
