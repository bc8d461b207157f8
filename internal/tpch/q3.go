package tpch

import (
	"sort"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// TPC-H Q3: shipping priority. customer (BUILDING segment, 1/5) joins
// orders (o_orderdate < 1995-03-15, ~half), then a groupjoin with lineitem
// (l_shipdate > 1995-03-15, ~half) keyed by order.
//
// Paper result: hybrid gains 1.19x; SWOLE gains another 1.48x by replacing
// the customer-orders join with a positional bitmap semijoin. The cost
// model declines to rewrite the groupjoin into eager aggregation: too many
// keys are filtered by the join (Section IV-A2). Hybrid and SWOLE run the
// plan below on the engine (core.Synthesize lowers the groupjoin and the
// sort); only the data-centric kernel is hand-written.
//
// Canonical output: (o_orderkey, revenue, o_orderdate, o_shippriority)
// ordered by revenue desc, o_orderdate, o_orderkey; limit 10.

var q3Date = storage.MustParseDate("1995-03-15")

func q3Plan() plan.Node {
	return &plan.Sort{
		Input: &plan.Map{
			Input: &plan.GroupJoin{
				Build: &plan.Join{
					Probe: &plan.Scan{
						Table:  "orders",
						Filter: cmp(expr.LT, col("o_orderdate"), date("1995-03-15")),
					},
					Build: &plan.Scan{
						Table:  "customer",
						Filter: cmp(expr.EQ, col("c_mktsegment"), str("BUILDING")),
					},
					ProbeKey: "o_custkey",
					BuildKey: "c_custkey",
				},
				Probe: &plan.Scan{
					Table:  "lineitem",
					Filter: cmp(expr.GT, col("l_shipdate"), date("1995-03-15")),
				},
				BuildKey: "o_orderkey",
				ProbeKey: "l_orderkey",
				Aggs:     []plan.AggSpec{{Func: plan.Sum, Arg: revenueExpr(), As: "revenue"}},
			},
			Exprs: []plan.NamedExpr{
				{Expr: col("o_orderkey"), As: "o_orderkey"},
				{Expr: col("revenue"), As: "revenue"},
				{Expr: col("o_orderdate"), As: "o_orderdate"},
				{Expr: col("o_shippriority"), As: "o_shippriority"},
			},
		},
		Keys: []plan.SortKey{
			{Col: "revenue", Desc: true}, {Col: "o_orderdate"}, {Col: "o_orderkey"},
		},
		Limit: 10,
	}
}

// q3Finalize emits the top 10 qualifying orders from the per-order revenue
// table; o_orderkey is dense, so orderdate/shippriority are direct reads.
func q3Finalize(d *Data, tab *ht.AggTable) Rows {
	var rows Rows
	tab.ForEach(func(key int64, s int) {
		rows = append(rows, []int64{
			key, tab.Acc(s, 0),
			int64(d.Orders.OrderDate[key]), int64(d.Orders.ShipPriority[key]),
		})
	})
	sort.Slice(rows, func(a, b int) bool {
		if rows[a][1] != rows[b][1] {
			return rows[a][1] > rows[b][1]
		}
		if rows[a][2] != rows[b][2] {
			return rows[a][2] < rows[b][2]
		}
		return rows[a][0] < rows[b][0]
	})
	if len(rows) > 10 {
		rows = rows[:10]
	}
	return rows
}

func q3DataCentric(d *Data) Rows {
	building := int8(codeOf(d.Customer.SegDict, "BUILDING"))
	set := ht.NewSetTable(len(d.Customer.MktSegment) / 4)
	for c, seg := range d.Customer.MktSegment {
		if seg == building {
			set.Add(int64(c))
		}
	}
	o := &d.Orders
	tab := ht.NewAggTable(1, len(o.CustKey)/8)
	for i := range o.OrderDate {
		if o.OrderDate[i] < q3Date && set.Contains(int64(o.CustKey[i])) {
			tab.Lookup(int64(i)) // insert group, not yet valid
		}
	}
	li := &d.Lineitem
	for i := range li.ShipDate {
		if li.ShipDate[i] > q3Date {
			if s := tab.Find(int64(li.OrderKey[i])); s >= 0 {
				tab.Add(s, 0, int64(li.ExtendedPrice[i])*(100-int64(li.Discount[i])))
			}
		}
	}
	return q3Finalize(d, tab)
}
