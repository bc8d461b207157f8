package tpch

import (
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// TPC-H Q6: forecasting revenue change. A single scan of lineitem with
// five comparisons over three attributes selecting ~2% of tuples;
// revenue = sum(l_extendedprice * l_discount).
//
// Paper result: hybrid beats data-centric by 2.33x (prepass pays off on
// the complex, highly selective predicate); SWOLE adds 1.38x via access
// merging on l_discount — which appears in both the predicate and the
// aggregation — combined with value masking (Section IV-A5).
//
// Canonical output: one row (revenue), fixed-point x10^4.

var (
	q6Lo  = storage.MustParseDate("1994-01-01")
	q6Hi  = storage.MustParseDate("1995-01-01")
	q6Qty = int8(24)
)

func q6Plan() plan.Node {
	return &plan.Aggregate{
		Input: &plan.Scan{
			Table: "lineitem",
			Filter: and(
				cmp(expr.GE, col("l_shipdate"), date("1994-01-01")),
				cmp(expr.LT, col("l_shipdate"), date("1995-01-01")),
				&expr.Between{X: col("l_discount"), Lo: num(5), Hi: num(7)},
				cmp(expr.LT, col("l_quantity"), num(24)),
			),
		},
		Aggs: []plan.AggSpec{
			{Func: plan.Sum, Arg: mul(col("l_extendedprice"), col("l_discount")), As: "revenue"},
		},
	}
}

func q6DataCentric(d *Data) Rows {
	li := &d.Lineitem
	var revenue int64
	for i := range li.ShipDate {
		if li.ShipDate[i] >= q6Lo && li.ShipDate[i] < q6Hi &&
			li.Discount[i] >= 5 && li.Discount[i] <= 7 && li.Quantity[i] < q6Qty {
			revenue += int64(li.ExtendedPrice[i]) * int64(li.Discount[i])
		}
	}
	return Rows{{revenue}}
}
