package main

import (
	"fmt"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/micro"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/tpch"
)

// rng is splitmix64, the generator every dataset in the repository uses:
// its sequence does not depend on the Go version.
type rng uint64

func (s *rng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix(uint64(*s))
}

func (s *rng) intn(n int) int { return int(s.next() % uint64(n)) }

// between returns a uniform value in [lo, hi].
func (s *rng) between(lo, hi int) int { return lo + s.intn(hi-lo+1) }

// op is one operation of a pass: a query, or a CSV append into r.
type op struct {
	s   *stmt
	csv []byte
}

// kernelCols names the columns of a workload's fact table that the
// standalone kernel rungs of the traced run sweep.
type kernelCols struct {
	fact    string
	filter  string // int8, the predicate column
	a, b    string // int8 value columns
	lowKey  string // few groups: the cache-resident fold
	highKey string // many groups: the out-of-cache fold
}

var (
	microCols = kernelCols{fact: "r", filter: "r_x", a: "r_a", b: "r_b", lowKey: "r_a", highKey: "r_c"}
	tpchCols  = kernelCols{fact: "lineitem", filter: "l_quantity", a: "l_quantity", b: "l_discount", lowKey: "l_quantity", highKey: "l_orderkey"}
)

// workload is one instantiated workload: data loaders, the distinct
// statements it replays (none for adhoc_compile) and its pass generator.
type workload struct {
	workloadCfg
	seed uint64
	http bool // operations travel over a loopback serve.Server
	cols kernelCols

	// load builds the dataset through the repository's public loaders.
	load func() (*swole.DB, error)
	// own builds a second copy as a benchmark-owned storage.Database, the
	// entry value of the sql and core rungs of the traced run.
	own func() (*storage.Database, error)
	// distinct are the statements executed cold once during set-up.
	distinct []*stmt
	// aux are extra statements the traced run adds to the ladder so that
	// every workload has classic specs and generic statements to time.
	aux []*stmt
	// pass returns the operation list of pass g, warm-up passes first.
	pass func(g int) []op
}

func cfgOf(name string) (workloadCfg, bool) {
	for _, c := range workloadCfgs {
		if c.name == name {
			return c, true
		}
	}
	return workloadCfg{}, false
}

func newWorkload(name string, seed uint64) (*workload, error) {
	cfg, ok := cfgOf(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return newWorkloadCfg(cfg, seed), nil
}

// newWorkloadCfg instantiates a workload at the given sizing; tests pass
// a scaled-down one.
func newWorkloadCfg(cfg workloadCfg, seed uint64) *workload {
	name := cfg.name
	w := &workload{workloadCfg: cfg, seed: seed, cols: microCols}
	mcfg := swole.MicroConfig{Rows: cfg.rows, DimRows: cfg.dimRows, GroupKeys: cfg.groups, Seed: seed}
	w.load = func() (*swole.DB, error) { return swole.LoadMicro(mcfg) }
	w.own = func() (*storage.Database, error) { return ownMicro(mcfg) }

	switch name {
	case "micro_classic":
		for _, sel := range []int64{5, 50, 95} {
			w.distinct = append(w.distinct,
				microScalar(sel), microGroup("r_a", sel), microSemi(sel), microGroup("r_c", sel), microGJoin(sel))
		}
		w.aux = microGeneric()
		w.pass = fixedPass(w.distinct)

	case "tpch_generic":
		w.cols = tpchCols
		w.load = func() (*swole.DB, error) { return swole.LoadTPCH(cfg.sf), nil }
		w.own = func() (*storage.Database, error) { return tpch.Generate(cfg.sf).DB, nil }
		w.distinct = tpchStmts(seed)
		w.aux = tpchClassic()
		w.pass = fixedPass(w.distinct)

	case "adhoc_compile":
		load := w.load
		w.load = func() (*swole.DB, error) {
			db, err := load()
			if err != nil {
				return nil, err
			}
			return db, addAdhocDim(db, cfg.groups, seed)
		}
		w.own = func() (*storage.Database, error) {
			db, err := ownMicro(mcfg)
			if err != nil {
				return nil, err
			}
			pk, v := adhocDim(cfg.groups, seed)
			db.AddTable(storage.MustNewTable("g", storage.Compress("g_pk", pk, storage.LogInt), storage.Compress("g_v", v, storage.LogInt)))
			return db, db.AddFKIndex("r", "r_c", "g", "g_pk")
		}
		w.aux = append(microGeneric(), microScalar(50), microGroup("r_a", 50), microSemi(50), microGJoin(50))
		gen := newAdhocGen(seed, cfg.groups)
		var passes [][]op
		w.pass = func(g int) []op {
			for len(passes) <= g {
				ss := gen.pass(len(passes), adhocPerPass)
				ops := make([]op, len(ss))
				for i, s := range ss {
					ops[i] = op{s: s}
				}
				passes = append(passes, ops)
			}
			return passes[g]
		}

	case "serve_mixed":
		w.http = true
		w.distinct, w.pass = serveMixed(cfg, seed)
		w.aux = append(microGeneric(), microGJoin(50))
	}
	return w
}

func fixedPass(ss []*stmt) func(int) []op {
	ops := make([]op, len(ss))
	for i, s := range ss {
		ops[i] = op{s: s}
	}
	return func(int) []op { return ops }
}

// ownMicro builds the micro dataset as a storage.Database, column for
// column what swole.LoadMicro registers.
func ownMicro(cfg swole.MicroConfig) (*storage.Database, error) {
	m := micro.Generate(micro.Config{NR: cfg.Rows, NS: cfg.DimRows, CCard: cfg.GroupKeys, Seed: cfg.Seed})
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("r",
		widen("r_a", m.A), widen("r_b", m.B), widen("r_x", m.X), widen("r_y", m.Y),
		widen("r_c", m.C), widen("r_fk", m.FK)))
	db.AddTable(storage.MustNewTable("s", widen("s_pk", m.SPK), widen("s_x", m.SX)))
	return db, db.AddFKIndex("r", "r_fk", "s", "s_pk")
}

func widen[T int8 | int32](name string, v []T) *storage.Column {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return storage.Compress(name, out, storage.LogInt)
}

// adhocDim is a second dimension g(g_pk, g_v) that r_c references, so the
// ad-hoc grammar has two join edges to draw from.
func adhocDim(n int, seed uint64) (pk, v []int64) {
	r := rng(seed ^ 0xd1b54a32d192ed03)
	pk, v = make([]int64, n), make([]int64, n)
	for i := range pk {
		pk[i] = int64(i)
		v[i] = int64(r.intn(100))
	}
	return pk, v
}

func addAdhocDim(db *swole.DB, n int, seed uint64) error {
	pk, v := adhocDim(n, seed)
	if err := db.CreateTable("g", swole.IntColumn("g_pk", pk), swole.IntColumn("g_v", v)); err != nil {
		return err
	}
	return db.AddForeignKey("r", "r_c", "g", "g_pk")
}

// tpchStmts are the eight tpch_generic statements. None collapses to a
// classic shape: each has several aggregates, HAVING, OR/NOT, min/max or
// two and more join edges. The seed moves only literals that leave the
// amount of work alone (a day of the month, a HAVING threshold).
func tpchStmts(seed uint64) []*stmt {
	r := rng(seed)
	day := func() int { return r.between(1, 9) }
	return []*stmt{
		genericStmt("q1_multiagg", fmt.Sprintf(
			"select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_price, count(*) as n "+
				"from lineitem where l_shipdate <= date '1998-09-0%d' group by l_returnflag, l_linestatus", day())),
		genericStmt("or3_having", fmt.Sprintf(
			"select l_shipmode, sum(l_quantity) as q, count(*) as n from lineitem "+
				"where l_quantity < 5 or l_discount > 0.08 or l_shipdate < date '1993-01-0%d' "+
				"group by l_shipmode having count(*) > %d", day(), r.between(100, 199))),
		genericStmt("not_scalar", fmt.Sprintf(
			"select count(*) as n, sum(l_extendedprice) as s from lineitem "+
				"where not (l_quantity between 10 and 40) and l_tax < 0.05 and l_shipdate >= date '1992-01-0%d'", day())),
		genericStmt("join2_group", fmt.Sprintf(
			"select p_brand, sum(l_quantity) as q, count(*) as n from lineitem, orders, part "+
				"where l_orderkey = o_orderkey and l_partkey = p_partkey and o_orderdate < date '1995-01-0%d' and p_size < 20 "+
				"group by p_brand", day())),
		genericStmt("snowflake3", fmt.Sprintf(
			"select n_name, sum(l_extendedprice) as rev, count(*) as n from lineitem, orders, customer, nation "+
				"where l_orderkey = o_orderkey and o_custkey = c_custkey and c_nationkey = n_nationkey "+
				"and o_orderdate >= date '1994-01-0%d' and l_quantity < 30 group by n_name", day())),
		genericStmt("minmax_group", fmt.Sprintf(
			"select l_shipmode, min(l_extendedprice) as lo, max(l_extendedprice) as hi from lineitem "+
				"where l_quantity > 25 and l_shipdate >= date '1992-01-0%d' group by l_shipmode", day())),
		genericStmt("join_minmax", fmt.Sprintf(
			"select min(l_shipdate) as lo, max(l_shipdate) as hi, count(*) as n from lineitem, supplier "+
				"where l_suppkey = s_suppkey and s_nationkey < 10 and l_shipdate >= date '1992-01-0%d'", day())),
		genericStmt("or3_join_having", fmt.Sprintf(
			"select o_orderpriority, sum(l_quantity) as q, max(l_discount) as d from lineitem, orders "+
				"where l_orderkey = o_orderkey and (l_shipmode = 'AIR' or l_shipmode = 'RAIL' or l_quantity > 45) "+
				"group by o_orderpriority having sum(l_quantity) > %d", r.between(1000, 1999))),
	}
}

// tpchClassic are four classic-shape statements over the TPC-H tables,
// with hand-built specs, for the core rungs of tpch_generic's ladder.
func tpchClassic() []*stmt {
	e := fkEdge{probe: "lineitem", fk: "l_orderkey", build: "orders", pk: "o_orderkey"}
	f := conj{lt("l_quantity", 26)}
	return []*stmt{
		scalarStmt("aux.scalar", "lineitem", f, val{a: "l_quantity"}),
		groupStmt("aux.group", "lineitem", f, "l_suppkey", val{a: "l_quantity"}),
		semiStmt("aux.semijoin", e, f, conj{lt("o_custkey", 15000)}, val{a: "l_quantity"}),
		gjoinStmt("aux.groupjoin", e, conj{lt("o_custkey", 15000)}, val{a: "l_quantity"}),
	}
}

// serveMixed builds serve_mixed's statements and pass generator. A pass
// is 18 queries and 2 CSV appends of ingestRows rows into r, the appends
// in fixed slots. Batch k of a run is a function of the seed and k only,
// so the table grows by the same rows in every run.
const (
	ingestRows  = 500
	ingestSlotA = 6
	ingestSlotB = 13
)

func serveMixed(cfg workloadCfg, seed uint64) ([]*stmt, func(int) []op) {
	count := scalarStmt("visible_rows", "r", conj{{"r_y", expr.EQ, 1}}, val{})
	count.countsRows = true
	sc := map[int64]*stmt{5: microScalar(5), 50: microScalar(50), 95: microScalar(95)}
	ga := map[int64]*stmt{5: microGroup("r_a", 5), 50: microGroup("r_a", 50), 95: microGroup("r_a", 95)}
	sj := map[int64]*stmt{5: microSemi(5), 50: microSemi(50), 95: microSemi(95)}
	gc := microGroup("r_c", 50)
	distinct := []*stmt{sc[5], sc[50], sc[95], ga[5], ga[50], ga[95], sj[5], sj[50], sj[95], gc, count}
	queries := []*stmt{
		sc[5], ga[50], sj[50], count, gc, sc[95],
		ga[5], sj[5], sc[50], gc, count, sj[95],
		ga[95], sc[5], count, gc, sj[50], ga[50],
	}
	var passes [][]op
	pass := func(g int) []op {
		for len(passes) <= g {
			k := len(passes) * 2
			ops := make([]op, 0, len(queries)+2)
			for _, q := range queries {
				switch len(ops) {
				case ingestSlotA:
					ops = append(ops, op{csv: microCSV(cfg, seed, k)})
				case ingestSlotB:
					ops = append(ops, op{csv: microCSV(cfg, seed, k+1)})
				}
				ops = append(ops, op{s: q})
			}
			passes = append(passes, ops)
		}
		return passes[g]
	}
	return distinct, pass
}

// microCSV renders batch k of rows for r: r_a, r_b, r_x, r_y, r_c, r_fk.
func microCSV(cfg workloadCfg, seed uint64, k int) []byte {
	r := rng(seed*0x9e3779b97f4a7c15 + uint64(k) + 1)
	var b []byte
	for i := 0; i < ingestRows; i++ {
		b = fmt.Appendf(b, "%d,%d,%d,1,%d,%d\n",
			r.between(1, 100), r.between(1, 100), r.intn(100), r.intn(cfg.groups), r.intn(cfg.dimRows))
	}
	return b
}
