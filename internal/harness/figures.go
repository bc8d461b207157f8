package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/micro"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/tpch"
)

// Fig6Row is one query of the paper's Figure 6: its runtime under the
// interpreted Volcano baseline (HyPer substitute), data-centric, hybrid and
// SWOLE, and the technique SWOLE ran.
type Fig6Row struct {
	Query    tpch.Query
	Runtimes map[tpch.Strategy]time.Duration
	// Swole is the engine plan's Explain.Technique, or for a hand-written
	// SWOLE kernel its tpch.ExplainSwole techniques marked "(hand)".
	Swole string
}

// Fig6 runs the TPC-H experiment and returns one row per query. Each
// strategy is prepared before its timed runs, so an engine plan's compile
// is not timed.
func (cfg Config) Fig6() ([]Fig6Row, error) {
	d := tpch.Generate(cfg.SF)
	hand := map[tpch.Query]string{}
	for _, ex := range tpch.ExplainSwole() {
		techs := make([]string, len(ex.Techniques))
		for i, t := range ex.Techniques {
			techs[i] = t.String()
		}
		hand[ex.Query] = strings.Join(techs, "+") + " (hand)"
	}
	rows := make([]Fig6Row, 0, len(tpch.Queries))
	for _, q := range tpch.Queries {
		row := Fig6Row{Query: q, Runtimes: map[tpch.Strategy]time.Duration{}, Swole: hand[q]}
		for _, s := range tpch.Strategies {
			run, err := d.Prepare(q, s)
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", q, s, err)
			}
			var ex core.Explain
			row.Runtimes[s] = cfg.timeBest(func() int64 {
				var res tpch.Rows
				res, ex, err = run()
				var chk int64
				for _, r := range res {
					for _, v := range r {
						chk += v
					}
				}
				return chk
			})
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", q, s, err)
			}
			if s == tpch.Swole && tpch.OnEngine(q, s) {
				row.Swole = ex.Technique.String()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig6 renders the Figure 6 table with the paper's speedup columns.
func FormatFig6(rows []Fig6Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %12s %12s %12s %12s %10s %10s  %s\n",
		"query", "volcano", "datacentric", "hybrid", "swole", "hy/dc", "sw/hy", "swole ran")
	for _, r := range rows {
		dc := r.Runtimes[tpch.DataCentric]
		hy := r.Runtimes[tpch.Hybrid]
		sw := r.Runtimes[tpch.Swole]
		fmt.Fprintf(&sb, "%-5s %12s %12s %12s %12s %9.2fx %9.2fx  %s\n",
			r.Query,
			fmtDur(r.Runtimes[tpch.Volcano]), fmtDur(dc), fmtDur(hy), fmtDur(sw),
			ratio(dc, hy), ratio(hy, sw), r.Swole)
	}
	return sb.String()
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Figures 8-12 are one table each: a figure is its panels, a panel its
// series, and a series a way to prepare one selectivity point. Fig8-Fig12
// time the table, the root package's BenchmarkFig8-12 run it under
// testing.B, and TestFigureSeriesAgree holds every series to its panel's
// data-centric baseline. A series the engine can run is the engine's plan —
// forced onto the series' technique, or the cost model's own — prepared on
// one worker over the zero-copy microStorageDB. Only what the engine cannot
// run is a hand-written micro kernel: the data-centric and ROF baselines,
// access merging, and the hash-join hybrid of Q4 and Q5.

// Panel is one sub-figure: its series over one dataset.
type Panel struct {
	ID, Title string
	Series    []Line
}

// Line is one series: its name and how to prepare it at a selectivity.
type Line struct {
	Name    string
	Prepare func(sel int) Run
}

// Run executes one prepared point and returns its answer.
type Run func() Answer

// Answer is a run's result in the form its executor produced it — a
// scalar, a hand kernel's group table, or an engine plan's grouped rows — so
// a timed run converts nothing.
type Answer struct {
	scalar int64
	tab    *ht.AggTable
	res    *core.SelectResult
}

// Sink is a cheap digest of the answer that keeps a timed run live.
func (a Answer) Sink() int64 {
	switch {
	case a.tab != nil:
		return int64(a.tab.Len())
	case a.res != nil:
		return int64(len(a.res.Flat))
	}
	return a.scalar
}

// costModel asks microSet.plan for the cost model's technique.
const costModel core.Technique = -1

// microSet is one generated microbenchmark dataset and the engine over it.
type microSet struct {
	d *micro.Data
	e *core.Engine
}

func newMicroSet(nr, ns, card int) microSet {
	d := micro.Generate(micro.Config{NR: nr, NS: ns, CCard: card, Seed: 1})
	e := core.NewEngine(microStorageDB(d))
	e.Workers = 1
	return microSet{d: d, e: e}
}

// engine is a series the engine runs: spec at each selectivity, prepared
// under tech.
func (m microSet) engine(name string, tech core.Technique, spec func(sel int) core.Select) Line {
	return Line{Name: name, Prepare: func(sel int) Run { return m.plan(tech, spec(sel)) }}
}

// plan prepares spec under tech, the cost model's pick for costModel, and
// returns its run. The figures' specs are fixed, so a failure is a bug.
func (m microSet) plan(tech core.Technique, spec core.Select) Run {
	var p *core.PreparedSelect
	var err error
	if tech == costModel {
		p, err = m.e.Prepare(spec)
	} else {
		p, err = m.e.PrepareForced(spec, tech)
	}
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	grouped := len(spec.GroupBy) > 0
	return func() Answer {
		res, _, err := p.RunContext(context.Background())
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		if grouped {
			return Answer{res: res}
		}
		return Answer{scalar: res.Flat[0]}
	}
}

// handSum is a series a hand-written kernel returning a sum runs.
func handSum(name string, fn func(sel int) int64) Line {
	return Line{Name: name, Prepare: func(sel int) Run {
		return func() Answer { return Answer{scalar: fn(sel)} }
	}}
}

// handGroups is a series a hand-written kernel returning a group table runs.
func handGroups(name string, fn func(sel int) *ht.AggTable) Line {
	return Line{Name: name, Prepare: func(sel int) Run {
		return func() Answer { return Answer{tab: fn(sel)} }
	}}
}

// microFilter is the micro queries' predicate r_x < sel and r_y = 1.
func microFilter(sel int) expr.Expr {
	return &expr.Logic{Op: expr.And, Args: []expr.Expr{
		lt("r_x", int64(sel)),
		&expr.Cmp{Op: expr.EQ, L: expr.NewCol("r_y"), R: &expr.Const{Val: 1}},
	}}
}

// microStorageDB wraps a generated microbenchmark dataset as storage
// tables without copying: the engine's plans read the same typed slices the
// hand-written baselines do, so the series of one figure compare executors,
// not data layouts.
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

// lt builds the selectivity predicate col < v.
func lt(col string, v int64) expr.Expr {
	return &expr.Cmp{Op: expr.LT, L: expr.NewCol(col), R: &expr.Const{Val: v}}
}

// sumSpec is the Select spec the SQL frontend synthesizes for the
// microbenchmark statements: one sum aliased "s" under the canonical
// projection, grouped by the optional key.
func sumSpec(root string, filter, agg expr.Expr, groupBy ...string) core.Select {
	spec := core.Select{
		Root: root, Filter: filter, GroupBy: groupBy,
		Aggs: []core.SelectAgg{{Kind: core.AggSum, Arg: agg, As: "s"}},
	}
	for _, name := range append(groupBy, "s") {
		spec.Project = append(spec.Project, core.SelectProj{Expr: expr.NewCol(name), As: name})
	}
	return spec
}

// joinS joins the spec's r to s through r_fk, keeping the parents with
// s_x < sel.
func joinS(spec core.Select, sel int) core.Select {
	spec.Edges = []core.SelectEdge{{Src: -1, FK: "r_fk", Parent: "s", PK: "s_pk", Filter: lt("s_x", int64(sel))}}
	return spec
}

// arith builds l op r over two columns.
func arith(op expr.ArithOp, l, r string) expr.Expr {
	return &expr.Arith{Op: op, L: expr.NewCol(l), R: expr.NewCol(r)}
}

// MicroPanels returns the panels of micro figure fig, 8 to 12, or nil.
func (cfg Config) MicroPanels(fig int) []Panel {
	switch fig {
	case 8:
		return cfg.fig8()
	case 9:
		return cfg.fig9()
	case 10:
		return cfg.fig10()
	case 11:
		return cfg.fig11()
	case 12:
		return cfg.fig12()
	}
	return nil
}

// measure times every series of every panel at each selectivity of the
// sweep, preparing each point before its timed runs.
func (cfg Config) measure(panels []Panel) []Figure {
	out := make([]Figure, 0, len(panels))
	for _, p := range panels {
		fig := Figure{ID: p.ID, Title: p.Title, XLabel: "sel(%)"}
		for _, l := range p.Series {
			series := Series{Name: l.Name}
			for _, sel := range defaultSels() {
				run := l.Prepare(sel)
				dur := cfg.timeBest(func() int64 { return run().Sink() })
				series.Points = append(series.Points, Point{X: float64(sel), Runtime: dur})
			}
			fig.Series = append(fig.Series, series)
		}
		out = append(out, fig)
	}
	return out
}

// Fig8 regenerates micro Q1 (value masking): runtime vs selectivity for
// multiplication (fig8a) and division (fig8b).
func (cfg Config) Fig8() []Figure { return cfg.measure(cfg.fig8()) }

func (cfg Config) fig8() []Panel {
	m := newMicroSet(cfg.MicroR, 1000, 1000)
	out := make([]Panel, 0, 2)
	for _, op := range []micro.Op{micro.OpMul, micro.OpDiv} {
		p, aop := Panel{ID: "fig8a", Title: "Micro Q1, OP = * (memory-bound)"}, expr.Mul
		if op == micro.OpDiv {
			p, aop = Panel{ID: "fig8b", Title: "Micro Q1, OP = / (compute-bound)"}, expr.Div
		}
		q1 := func(sel int) core.Select { return sumSpec("r", microFilter(sel), arith(aop, "r_a", "r_b")) }
		p.Series = []Line{
			handSum("datacentric", func(sel int) int64 { return micro.Q1DataCentric(m.d, op, sel) }),
			m.engine("hybrid", core.TechHybrid, q1),
			handSum("rof", func(sel int) int64 { return micro.Q1ROF(m.d, op, sel) }),
			m.engine("value-masking", core.TechValueMasking, q1),
		}
		out = append(out, p)
	}
	return out
}

// fig9Cards returns the group-key cardinalities for Figure 9, scaled so
// the largest stays at the paper's 1:10 ratio to R, and at least one.
func (cfg Config) fig9Cards() []int {
	cards := []int{10, 1000, 100_000, 10_000_000}
	maxCard := max(cfg.MicroR/10, 1)
	out := make([]int, 0, len(cards))
	for _, c := range cards {
		c = min(c, maxCard)
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

// dimRows caps a paper |S| at half of R, and at least one row.
func (cfg Config) dimRows(ns int) int { return max(min(ns, cfg.MicroR/2), 1) }

// Fig9 regenerates micro Q2 (key masking): one sub-figure per group-key
// cardinality.
func (cfg Config) Fig9() []Figure { return cfg.measure(cfg.fig9()) }

func (cfg Config) fig9() []Panel {
	labels := []string{"a", "b", "c", "d"}
	var out []Panel
	for i, card := range cfg.fig9Cards() {
		m := newMicroSet(cfg.MicroR, 1000, card)
		q2 := func(sel int) core.Select {
			return sumSpec("r", microFilter(sel), arith(expr.Mul, "r_a", "r_b"), "r_c")
		}
		out = append(out, Panel{
			ID:    "fig9" + labels[i%len(labels)],
			Title: fmt.Sprintf("Micro Q2, |r_c| = %d", card),
			Series: []Line{
				handGroups("datacentric", func(sel int) *ht.AggTable { return micro.Q2DataCentric(m.d, sel) }),
				m.engine("hybrid", core.TechHybrid, q2),
				m.engine("value-masking", core.TechValueMasking, q2),
				m.engine("key-masking", core.TechKeyMasking, q2),
			},
		})
	}
	return out
}

// Fig10 regenerates micro Q3 (access merging): one sub-figure per reused
// attribute count.
func (cfg Config) Fig10() []Figure { return cfg.measure(cfg.fig10()) }

func (cfg Config) fig10() []Panel {
	m := newMicroSet(cfg.MicroR, 1000, 1000)
	var out []Panel
	for i, col := range []micro.Col{micro.ColA, micro.ColY} {
		q3 := func(sel int) core.Select {
			return sumSpec("r", microFilter(sel), arith(expr.Mul, "r_x", col.String()))
		}
		out = append(out, Panel{
			ID:    "fig10" + string(rune('a'+i)),
			Title: fmt.Sprintf("Micro Q3, COL = %s", col),
			Series: []Line{
				handSum("datacentric", func(sel int) int64 { return micro.Q3DataCentric(m.d, col, sel) }),
				m.engine("hybrid", core.TechHybrid, q3),
				m.engine("value-masking", core.TechValueMasking, q3),
				handSum("access-merging", func(sel int) int64 { return micro.Q3AccessMerging(m.d, col, sel) }),
			},
		})
	}
	return out
}

// Fig11 regenerates micro Q4 (positional bitmaps): four panels fixing one
// side's selectivity at 10% or 90% while sweeping the other. |S| follows
// the paper's 1M, capped at half of R. The positional-bitmap series is the
// cost model's plan: every join edge of an engine plan is a bitmap probe.
func (cfg Config) Fig11() []Figure { return cfg.measure(cfg.fig11()) }

func (cfg Config) fig11() []Panel {
	m := newMicroSet(cfg.MicroR, cfg.dimRows(1_000_000), 1000)
	var out []Panel
	for _, p := range []struct {
		id, title string
		fixProbe  bool
		fixed     int
	}{
		{"fig11a", "Micro Q4, probe sel fixed 10%, sweep build", true, 10},
		{"fig11b", "Micro Q4, probe sel fixed 90%, sweep build", true, 90},
		{"fig11c", "Micro Q4, build sel fixed 10%, sweep probe", false, 10},
		{"fig11d", "Micro Q4, build sel fixed 90%, sweep probe", false, 90},
	} {
		// sels maps the swept selectivity to (probe, build).
		sels := func(sel int) (int, int) {
			if p.fixProbe {
				return p.fixed, sel
			}
			return sel, p.fixed
		}
		hand := func(q4 func(d *micro.Data, probe, build int) int64) func(int) int64 {
			return func(sel int) int64 {
				probe, build := sels(sel)
				return q4(m.d, probe, build)
			}
		}
		q4 := func(sel int) core.Select {
			probe, build := sels(sel)
			return joinS(sumSpec("r", microFilter(probe), arith(expr.Mul, "r_a", "r_b")), build)
		}
		out = append(out, Panel{ID: p.id, Title: p.title, Series: []Line{
			handSum("datacentric", hand(micro.Q4DataCentric)),
			handSum("hybrid", hand(micro.Q4Hybrid)),
			m.engine("positional-bitmap", costModel, q4),
		}})
	}
	return out
}

// Fig12 regenerates micro Q5 (eager aggregation): |S| = 1K and 1M (the
// latter capped at half of R).
func (cfg Config) Fig12() []Figure { return cfg.measure(cfg.fig12()) }

func (cfg Config) fig12() []Panel {
	var out []Panel
	for i, ns := range []int{1000, cfg.dimRows(1_000_000)} {
		m := newMicroSet(cfg.MicroR, ns, 1000)
		q5 := func(sel int) core.Select {
			return joinS(sumSpec("r", nil, arith(expr.Mul, "r_a", "r_b"), "r_fk"), sel)
		}
		out = append(out, Panel{
			ID:    "fig12" + string(rune('a'+i)),
			Title: fmt.Sprintf("Micro Q5, |S| = %d", ns),
			Series: []Line{
				handGroups("datacentric", func(sel int) *ht.AggTable { return micro.Q5DataCentric(m.d, sel) }),
				handGroups("hybrid", func(sel int) *ht.AggTable { return micro.Q5Hybrid(m.d, sel) }),
				m.engine("eager-aggregation", core.TechEagerAggregation, q5),
			},
		})
	}
	return out
}
