package tpch

import (
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
)

// TPC-H Q19: discounted revenue. lineitem joins part under a three-way
// disjunction that mixes attributes of both sides (brand, container, size
// on part; quantity, shipmode, shipinstruct on lineitem).
//
// Paper result: hybrid gains 1.78x by vectorizing the independent
// lineitem predicates; SWOLE gains another 2.07x by building three
// positional bitmaps — one per disjunct — in a single sequential scan of
// part, resolving the join into a union of semijoins (Section IV-A8).
//
// Canonical output: one row (revenue).

// q19Branch holds one disjunct's parameters.
type q19Branch struct {
	brand      string
	containers []string
	qtyLo      int8
	qtyHi      int8
	sizeHi     int8
}

var q19Branches = []q19Branch{
	{"Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5},
	{"Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10},
	{"Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15},
}

func q19Plan() plan.Node {
	branch := func(b q19Branch) expr.Expr {
		list := make([]expr.Expr, len(b.containers))
		for i, c := range b.containers {
			list[i] = str(c)
		}
		return and(
			cmp(expr.EQ, col("p_brand"), str(b.brand)),
			&expr.In{X: col("p_container"), List: list},
			&expr.Between{X: col("l_quantity"), Lo: num(int64(b.qtyLo)), Hi: num(int64(b.qtyHi))},
			&expr.Between{X: col("p_size"), Lo: num(1), Hi: num(int64(b.sizeHi))},
		)
	}
	return &plan.Aggregate{
		Input: &plan.Join{
			Probe: &plan.Scan{
				Table: "lineitem",
				Filter: and(
					&expr.In{X: col("l_shipmode"), List: []expr.Expr{str("AIR"), str("REG AIR")}},
					cmp(expr.EQ, col("l_shipinstruct"), str("DELIVER IN PERSON")),
				),
			},
			Build:    &plan.Scan{Table: "part"},
			ProbeKey: "l_partkey",
			BuildKey: "p_partkey",
			Residual: or(branch(q19Branches[0]), branch(q19Branches[1]), branch(q19Branches[2])),
		},
		Aggs: []plan.AggSpec{{Func: plan.Sum, Arg: revenueExpr(), As: "revenue"}},
	}
}

// q19Consts resolves the dictionary codes once per execution.
type q19Consts struct {
	air, regAir int8
	deliver     int8
	brands      [3]int8
	contMatch   [3][]byte // per-branch container-code table
}

func q19Resolve(d *Data) q19Consts {
	var c q19Consts
	c.air = int8(codeOf(d.Lineitem.ModeDict, "AIR"))
	c.regAir = int8(codeOf(d.Lineitem.ModeDict, "REG AIR"))
	c.deliver = int8(codeOf(d.Lineitem.InstructDict, "DELIVER IN PERSON"))
	for k, b := range q19Branches {
		c.brands[k] = int8(codeOf(d.Part.BrandDict, b.brand))
		set := map[string]bool{}
		for _, s := range b.containers {
			set[s] = true
		}
		c.contMatch[k] = d.Part.ContDict.MatchPred(func(s string) bool { return set[s] })
	}
	return c
}

// q19PartBranch evaluates branch k's part-side conjuncts for part row p.
func q19PartBranch(d *Data, c *q19Consts, k, p int) bool {
	return d.Part.Brand[p] == c.brands[k] &&
		c.contMatch[k][d.Part.Container[p]] == 1 &&
		d.Part.Size[p] >= 1 && d.Part.Size[p] <= q19Branches[k].sizeHi
}

func q19DataCentric(d *Data) Rows {
	c := q19Resolve(d)
	li := &d.Lineitem
	var revenue int64
	for i := range li.PartKey {
		if (li.ShipMode[i] == c.air || li.ShipMode[i] == c.regAir) &&
			li.ShipInstruct[i] == c.deliver {
			p := int(li.PartKey[i]) // index join via dense p_partkey
			q := li.Quantity[i]
			for k := range q19Branches {
				if q >= q19Branches[k].qtyLo && q <= q19Branches[k].qtyHi && q19PartBranch(d, &c, k, p) {
					revenue += int64(li.ExtendedPrice[i]) * (100 - int64(li.Discount[i]))
					break
				}
			}
		}
	}
	return Rows{{revenue}}
}
