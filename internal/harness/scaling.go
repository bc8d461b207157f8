package harness

import (
	"context"
	"fmt"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/micro"
	"github.com/reprolab/swole/internal/storage"
)

// microStorageDB wraps a generated microbenchmark dataset as storage
// tables without copying: the engine's generic kernels read the same
// typed slices the hand-specialized kernels do, so Engine timings are
// comparable with the per-strategy figures.
func microStorageDB(d *micro.Data) *storage.Database {
	i8 := func(name string, v []int8) *storage.Column {
		return &storage.Column{Name: name, Kind: storage.KindInt8, Log: storage.LogInt, I8: v}
	}
	i32 := func(name string, v []int32) *storage.Column {
		return &storage.Column{Name: name, Kind: storage.KindInt32, Log: storage.LogInt, I32: v}
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("r",
		i8("r_a", d.A), i8("r_b", d.B), i8("r_x", d.X), i8("r_y", d.Y),
		i32("r_c", d.C), i32("r_fk", d.FK),
	))
	db.AddTable(storage.MustNewTable("s",
		i32("s_pk", d.SPK), i8("s_x", d.SX),
	))
	// Join statements resolve parent positions through the registered index.
	if err := db.AddFKIndex("r", "r_fk", "s", "s_pk"); err != nil {
		panic(err)
	}
	return db
}

// workerSweep returns 1, 2, 4, ... max, always ending exactly at max.
func workerSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// lt builds the selectivity predicate col < v.
func lt(col string, v int64) expr.Expr {
	return &expr.Cmp{Op: expr.LT, L: expr.NewCol(col), R: &expr.Const{Val: v}}
}

// FigScaling measures the morsel-driven parallel executor: the four classic
// statements over the microbenchmark dataset, through Engine.Prepare like
// every other statement (the ungrouped two run on the tile pipeline, the
// grouped two on their hand-specialized plans), swept from 1 worker
// to cfg.Workers. This is the experiment the paper could not run — its
// kernels were single-threaded — and it shows where each technique
// saturates memory bandwidth: the scalar value-masking scan stops scaling
// first, while compute-heavier shapes keep scaling past the saturation
// point the cost model's per-worker bandwidth share (cost.ForWorkers)
// assumes.
func (cfg Config) FigScaling() []Figure {
	ns := 1_000_000
	if ns > cfg.MicroR/2 {
		ns = cfg.MicroR / 2
	}
	d := micro.Generate(micro.Config{NR: cfg.MicroR, NS: ns, CCard: 1000, Seed: 1})
	db := microStorageDB(d)

	// Each query is the Select spec the SQL frontend would synthesize — one
	// sum aliased "s" under the canonical projection — prepared on the engine
	// like any statement; the timed run returns its sum, or its group count.
	// The scalar-agg query is micro Q1's shape at 90% selectivity with a
	// multiply aggregate: firmly memory-bound, so the planner picks value
	// masking and the sweep measures pure scan scaling.
	sum := func(root string, filter expr.Expr, agg expr.Expr, groupBy ...string) core.Select {
		spec := core.Select{
			Root: root, Filter: filter, GroupBy: groupBy,
			Aggs: []core.SelectAgg{{Kind: core.AggSum, Arg: agg, As: "s"}},
		}
		for _, name := range append(groupBy, "s") {
			spec.Project = append(spec.Project, core.SelectProj{Expr: expr.NewCol(name), As: name})
		}
		return spec
	}
	joinS := func(spec core.Select) core.Select {
		spec.Edges = []core.SelectEdge{{Src: -1, FK: "r_fk", Parent: "s", PK: "s_pk", Filter: lt("s_x", 50)}}
		return spec
	}
	queries := []struct {
		name string
		spec func() core.Select // fresh trees per engine: Prepare binds them in place
	}{
		{"scalar-agg", func() core.Select {
			return sum("r", lt("r_x", 90), &expr.Arith{Op: expr.Mul, L: expr.NewCol("r_a"), R: expr.NewCol("r_b")})
		}},
		{"group-agg", func() core.Select { return sum("r", lt("r_x", 90), expr.NewCol("r_a"), "r_c") }},
		{"semijoin-agg", func() core.Select { return joinS(sum("r", lt("r_x", 90), expr.NewCol("r_a"))) }},
		{"groupjoin-agg", func() core.Select { return joinS(sum("r", nil, expr.NewCol("r_a"), "r_fk")) }},
	}
	prepare := func(e *core.Engine, spec core.Select) func() int64 {
		p, err := e.Prepare(spec)
		if err != nil {
			panic(err)
		}
		return func() int64 {
			part, _, _ := p.RunPartial(context.Background())
			switch {
			case part.Groups != nil:
				return int64(part.Groups.Len())
			case len(spec.GroupBy) > 0:
				return int64(len(part.Rows.Flat) / len(part.Rows.Fields))
			}
			return part.Rows.Flat[0]
		}
	}

	fig := Figure{
		ID:     "scaling",
		Title:  fmt.Sprintf("Morsel-driven scaling, R = %d rows", cfg.MicroR),
		XLabel: "workers",
	}
	// Baseline results at one worker; every other worker count must
	// reproduce them exactly (the merges are exact int64 sums).
	baseline := make([]int64, len(queries))
	for qi, q := range queries {
		e := core.NewEngine(db)
		e.Workers = 1
		baseline[qi] = prepare(e, q.spec())()
	}
	for qi, q := range queries {
		series := Series{Name: q.name}
		for _, w := range workerSweep(cfg.Workers) {
			e := core.NewEngine(db)
			e.Workers = w
			rerun := prepare(e, q.spec())
			dur := cfg.timeBest(func() int64 {
				got := rerun()
				if got != baseline[qi] {
					panic(fmt.Sprintf("harness: %s at %d workers returned %d, 1 worker returned %d",
						q.name, w, got, baseline[qi]))
				}
				return got
			})
			series.Points = append(series.Points, Point{X: float64(w), Runtime: dur})
		}
		fig.Series = append(fig.Series, series)
	}
	return []Figure{fig}
}
