package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/volcano"
)

// The entry-point parity matrix: every shape is lowered from its Select
// spec through both entry points of the compiled-plan layer — Prepare
// (re-run three times) and PrepareForced per applicable technique — at one
// worker and several, and every answer must be bit-identical to the
// Volcano interpreter's. This is the contract the layer exists to keep:
// one kernel per (shape, technique), reached from either entry point, same
// answer.

// volcanoMap runs a logical plan on the interpreter and flattens the
// answer to a key→sum map (single-row results under key 0).
func volcanoMap(t *testing.T, db *storage.Database, n plan.Node) map[int64]int64 {
	t.Helper()
	res, err := volcano.Run(n, db)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]int64{}
	for _, row := range res.Rows {
		if len(row) == 1 {
			out[0] = row[0]
		} else {
			out[row[0]] = row[1]
		}
	}
	return out
}

func sumAgg(name string) []plan.AggSpec {
	return []plan.AggSpec{{Func: plan.Sum, Arg: expr.NewCol(name), As: "s"}}
}

func TestParityMatrixAllEntryPoints(t *testing.T) {
	db := testDB(t, 40_000, 500, 64)

	// Volcano references, one per shape. The plan nodes use their own
	// expression instances so interpreter binding never aliases the
	// engine's.
	wantScalar := volcanoMap(t, db, &plan.Aggregate{
		Input: &plan.Scan{Table: "r", Filter: lt("r_x", 50)},
		Aggs:  sumAgg("r_a"),
	})
	wantGroup := volcanoMap(t, db, &plan.Aggregate{
		Input:   &plan.Scan{Table: "r", Filter: lt("r_x", 50)},
		GroupBy: []string{"r_c"},
		Aggs:    sumAgg("r_a"),
	})
	wantSemi := volcanoMap(t, db, &plan.Aggregate{
		Input: &plan.Join{
			Probe:    &plan.Scan{Table: "r", Filter: lt("r_x", 50)},
			Build:    &plan.Scan{Table: "s", Filter: lt("s_x", 50)},
			ProbeKey: "r_fk", BuildKey: "s_pk",
		},
		Aggs: sumAgg("r_a"),
	})
	wantGJoin := volcanoMap(t, db, &plan.Aggregate{
		Input: &plan.Join{
			Probe:    &plan.Scan{Table: "r"},
			Build:    &plan.Scan{Table: "s", Filter: lt("s_x", 50)},
			ProbeKey: "r_fk", BuildKey: "s_pk",
		},
		GroupBy: []string{"r_fk"},
		Aggs:    sumAgg("r_a"),
	})

	sq := ScalarAgg{Table: "r", Filter: lt("r_x", 50), Agg: expr.NewCol("r_a")}
	gq := GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: expr.NewCol("r_c"), Agg: expr.NewCol("r_a")}
	mq := SemiJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
		ProbeFilter: lt("r_x", 50), BuildFilter: lt("s_x", 50),
		Agg: expr.NewCol("r_a"),
	}
	jq := GroupJoinAgg{
		Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk",
		BuildFilter: lt("s_x", 50), Agg: expr.NewCol("r_a"),
	}
	// The semijoin probes its positional bitmap under either aggregation
	// technique of the tile pipeline; the groupjoin does so under every
	// grouped technique, or aggregates eagerly.
	shapes := []struct {
		name   string
		spec   Select
		want   map[int64]int64
		forced []Technique
	}{
		{"scalar", scalarSpec(sq), wantScalar, []Technique{TechDataCentric, TechHybrid, TechValueMasking}},
		{"group", groupSpec(gq), wantGroup, []Technique{TechDataCentric, TechHybrid, TechValueMasking, TechKeyMasking}},
		{"semijoin", semiSpec(mq), wantSemi, []Technique{TechHybrid, TechValueMasking}},
		{"groupjoin", gjoinSpec(jq), wantGJoin, []Technique{TechHybrid, TechValueMasking, TechKeyMasking, TechEagerAggregation}},
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		defer e.Close()
		for _, sh := range shapes {
			tag := fmt.Sprintf("workers=%d %s ", workers, sh.name)
			p, err := e.Prepare(sh.spec)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				res, _, err := p.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				sameGroups(t, tag+"prepared", resultMap(res), sh.want)
			}
			if techs := e.Techniques(sh.spec); !slices.Equal(techs, sh.forced) {
				t.Errorf("%stechniques %v, want %v", tag, techs, sh.forced)
			}
			for _, tech := range sh.forced {
				res, err := forcedOnce(e, sh.spec, tech)
				if err != nil {
					t.Fatal(err)
				}
				sameGroups(t, tag+"forced-"+tech.String(), resultMap(res), sh.want)
			}
			if _, err := e.PrepareForced(sh.spec, TechPositionalBitmap); err == nil {
				t.Errorf("%sforced positional-bitmap accepted", tag)
			}
		}
	}
}

// TestPrepareLowering pins what Prepare compiles the four classic
// statements and each near-miss — one step outside a classic shape's
// restrictions — to: the result header, and the technique the cost model
// picks. For a tile-pipeline plan that is the aggregation technique (Explain
// leads with eager-aggregation when the plan aggregates eagerly, else with
// positional-bitmap when the statement has join edges). Both groupjoins
// aggregate eagerly into 200 L1-resident records. The unfiltered one-sum
// statements aggregate into an L1-resident key-addressed table of packed
// one-word records — 16 of them, 3,200 for the two-key statement — where
// masking the one word costs what masking the key does, and the model keeps
// value masking on the tie; five sums per group make key masking cheaper.
func TestPrepareLowering(t *testing.T) {
	db := testDB(t, 5000, 200, 16)
	e := NewEngine(db)
	defer e.Close()
	col := expr.NewCol
	sum := func(arg expr.Expr, as string) SelectAgg { return SelectAgg{Kind: AggSum, Arg: arg, As: as} }
	proj := func(names ...string) []SelectProj {
		var out []SelectProj
		for _, n := range names {
			out = append(out, SelectProj{Expr: col(n), As: n})
		}
		return out
	}
	edge := func(filter expr.Expr) []SelectEdge {
		return []SelectEdge{{Src: -1, FK: "r_fk", Parent: "s", PK: "s_pk", Filter: filter}}
	}
	gjoin := func() Select {
		return gjoinSpec(GroupJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", BuildFilter: lt("s_x", 50), Agg: col("r_a")})
	}
	with := func(spec Select, edit func(*Select)) Select { edit(&spec); return spec }

	sums := func(n int) (aggs []SelectAgg, names []string) {
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("s%d", i))
			aggs = append(aggs, sum(col([]string{"r_a", "r_x", "r_c"}[i%3]), names[i]))
		}
		return aggs, names
	}
	fiveSums, fiveNames := sums(5)

	cases := []struct {
		name string
		spec Select
		tech Technique
	}{
		{"scalar", scalarSpec(ScalarAgg{Table: "r", Filter: lt("r_x", 50), Agg: col("r_a")}), TechValueMasking},
		{"count(*)", with(scalarSpec(ScalarAgg{Table: "r"}), func(s *Select) { s.Aggs[0].Kind = AggCount }), TechValueMasking},
		{"group", groupSpec(GroupAgg{Table: "r", Filter: lt("r_x", 50), Key: col("r_c"), Agg: col("r_a")}), TechValueMasking},
		{"semijoin", semiSpec(SemiJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", ProbeFilter: lt("r_x", 50), BuildFilter: lt("s_x", 50), Agg: col("r_a")}), TechValueMasking},
		{"groupjoin", gjoin(), TechValueMasking},

		{"two aggregates", Select{Root: "r", Aggs: []SelectAgg{sum(col("r_a"), "s"), sum(col("r_x"), "u")}, Project: proj("s", "u")}, TechValueMasking},
		{"min", with(scalarSpec(ScalarAgg{Table: "r", Agg: col("r_a")}), func(s *Select) { s.Aggs[0].Kind = AggMin }), TechValueMasking},
		{"having", with(groupSpec(GroupAgg{Table: "r", Key: col("r_c"), Agg: col("r_a")}), func(s *Select) {
			s.Having = &expr.Cmp{Op: expr.GT, L: col("s"), R: &expr.Const{Val: 0}}
		}), TechValueMasking},
		{"aliased projection", with(groupSpec(GroupAgg{Table: "r", Key: col("r_c"), Agg: col("r_a")}), func(s *Select) {
			s.Project[0].As = "k"
		}), TechValueMasking},
		{"reordered projection", with(groupSpec(GroupAgg{Table: "r", Key: col("r_c"), Agg: col("r_a")}), func(s *Select) {
			s.Project[0], s.Project[1] = s.Project[1], s.Project[0]
		}), TechValueMasking},
		{"two group keys", Select{Root: "r", GroupBy: []string{"r_c", "r_fk"}, Aggs: []SelectAgg{sum(col("r_a"), "s")}, Project: proj("r_c", "r_fk", "s")}, TechValueMasking},
		{"groupjoin probe filter", with(gjoin(), func(s *Select) { s.Filter = lt("r_x", 50) }), TechValueMasking},
		{"groupjoin keyed off the FK", with(gjoin(), func(s *Select) {
			s.GroupBy = []string{"r_c"}
			s.Project = proj("r_c", "s")
		}), TechValueMasking},
		{"aggregate over a parent column", Select{Root: "r", Edges: edge(nil), Aggs: []SelectAgg{sum(col("s_x"), "s")}, Project: proj("s")}, TechValueMasking},
		{"join residual", with(semiSpec(SemiJoinAgg{Probe: "r", Build: "s", FK: "r_fk", PK: "s_pk", Agg: col("r_a")}), func(s *Select) {
			s.Residual = &expr.Cmp{Op: expr.LT, L: col("r_x"), R: col("s_x")}
		}), TechValueMasking},
		{"selective filter", Select{Root: "r", Filter: lt("r_x", 5), Aggs: []SelectAgg{sum(col("r_a"), "s"), sum(col("r_x"), "u")}, Project: proj("s", "u")}, TechHybrid},
		{"five sums per group", Select{Root: "r", GroupBy: []string{"r_c"}, Aggs: fiveSums, Project: proj(append([]string{"r_c"}, fiveNames...)...)}, TechKeyMasking},
		{"two join edges", Select{Root: "r", Edges: append(edge(nil), edge(lt("s_x", 50))...), Aggs: []SelectAgg{sum(col("r_a"), "s")}, Project: proj("s")}, TechValueMasking},
	}
	for _, c := range cases {
		p, err := e.Prepare(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(p.Fields()) != len(c.spec.Project) {
			t.Errorf("%s: header %v for %d projected columns", c.name, p.Fields(), len(c.spec.Project))
			continue
		}
		for i, f := range p.Fields() {
			if f.Name != c.spec.Project[i].As {
				t.Errorf("%s: header column %d is %q, want %q", c.name, i, f.Name, c.spec.Project[i].As)
			}
		}
		_, ex, err := p.RunContext(context.Background())
		if err != nil {
			t.Errorf("%s: run: %v", c.name, err)
		}
		if p.tech != c.tech {
			t.Errorf("%s: aggregation technique %s, want %s (costs %v)", c.name, p.tech, c.tech, ex.Costs)
		}
		// Only the classic group-by answers with its table's own pairs.
		if p.pairOut != (c.name == "group") {
			t.Errorf("%s: pair emission %v", c.name, p.pairOut)
		}
		want := c.tech
		switch {
		case p.eager != nil:
			want = TechEagerAggregation
		case len(c.spec.Edges) > 0:
			want = TechPositionalBitmap
		}
		if ex.Technique != want {
			t.Errorf("%s: Explain.Technique %s, want %s (costs %v)", c.name, ex.Technique, want, ex.Costs)
		}
	}
}

// settle zeroes an Explain's wall-clock fields so two executions of the
// same compiled plan compare structurally.
func settle(ex Explain) Explain {
	ex.ScanTime, ex.MergeTime = 0, 0
	return ex
}

func requireNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
