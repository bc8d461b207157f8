package tpch

import (
	"sort"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// TPC-H Q1: pricing summary report. A single scan of lineitem whose
// predicate (l_shipdate <= 1998-09-02) selects ~98% of tuples, grouped by
// (l_returnflag, l_linestatus) — at most 6 groups — with the most
// compute-intensive aggregation in TPC-H.
//
// Paper result: hybrid gains only 1.04x over data-centric (simple, barely
// selective predicate); SWOLE gains another 1.43x via KEY masking — the
// cost model rejects value masking because all eight aggregate values
// would need individual masking (Section IV-A1).
//
// Canonical output: (returnflag, linestatus, sum_qty, sum_base_price,
// sum_disc_price, sum_charge, avg_qty, avg_price, avg_disc, count),
// ordered by returnflag, linestatus. Averages are fixed-point x100.

var q1Cutoff = storage.MustParseDate("1998-09-02")

func q1Plan() plan.Node {
	charge := mul(revenueExpr(), add(num(100), col("l_tax")))
	return &plan.Sort{
		Input: &plan.Aggregate{
			Input: &plan.Scan{
				Table:  "lineitem",
				Filter: cmp(expr.LE, col("l_shipdate"), date("1998-09-02")),
			},
			GroupBy: []string{"l_returnflag", "l_linestatus"},
			Aggs: []plan.AggSpec{
				{Func: plan.Sum, Arg: col("l_quantity"), As: "sum_qty"},
				{Func: plan.Sum, Arg: col("l_extendedprice"), As: "sum_base_price"},
				{Func: plan.Sum, Arg: revenueExpr(), As: "sum_disc_price"},
				{Func: plan.Sum, Arg: charge, As: "sum_charge"},
				{Func: plan.Avg, Arg: col("l_quantity"), As: "avg_qty"},
				{Func: plan.Avg, Arg: col("l_extendedprice"), As: "avg_price"},
				{Func: plan.Avg, Arg: col("l_discount"), As: "avg_disc"},
				{Func: plan.Count, As: "count_order"},
			},
		},
		Keys: []plan.SortKey{{Col: "l_returnflag"}, {Col: "l_linestatus"}},
	}
}

// q1Finalize converts an AggTable keyed by flag*2+status into canonical
// rows; shared by all hand kernels so finalization cost is identical.
func q1Finalize(tab *ht.AggTable) Rows {
	var rows Rows
	tab.ForEach(func(key int64, s int) {
		cnt := tab.Count(s)
		rows = append(rows, []int64{
			key / 2, key % 2,
			tab.Acc(s, 0), tab.Acc(s, 1), tab.Acc(s, 2), tab.Acc(s, 3),
			tab.Acc(s, 0) * storage.DecimalOne / cnt,
			tab.Acc(s, 1) * storage.DecimalOne / cnt,
			tab.Acc(s, 4) * storage.DecimalOne / cnt,
			cnt,
		})
	})
	sort.Slice(rows, func(a, b int) bool {
		if rows[a][0] != rows[b][0] {
			return rows[a][0] < rows[b][0]
		}
		return rows[a][1] < rows[b][1]
	})
	return rows
}

func q1DataCentric(d *Data) Rows {
	li := &d.Lineitem
	tab := ht.NewAggTable(5, 8)
	for i := range li.ShipDate {
		if li.ShipDate[i] <= q1Cutoff {
			key := int64(li.ReturnFlag[i])*2 + int64(li.LineStatus[i])
			s := tab.Lookup(key)
			qty := int64(li.Quantity[i])
			price := int64(li.ExtendedPrice[i])
			disc := int64(li.Discount[i])
			rev := price * (100 - disc)
			tab.Add(s, 0, qty)
			tab.Add(s, 1, price)
			tab.Add(s, 2, rev)
			tab.Add(s, 3, rev*(100+int64(li.Tax[i])))
			tab.Add(s, 4, disc)
		}
	}
	return q1Finalize(tab)
}
