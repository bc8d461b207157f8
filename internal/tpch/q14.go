package tpch

import (
	"strings"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
)

// TPC-H Q14: promotion effect. An index join between a ~1% selective month
// of lineitem and part, computing the share of promo revenue. p_type's low
// cardinality converts the LIKE into a precomputed lookup table.
//
// Paper result: hybrid beats data-centric 2.43x (prepass on the highly
// selective date range); SWOLE cannot improve further — the selected
// fraction is too small and the index join overhead dominates — so its
// cost model falls back to the hybrid plan (Section IV-A7).
//
// Canonical output: one row (promo_revenue), fixed-point percent x100
// (i.e. 16.38% -> 1638).

var (
	q14Lo = storage.MustParseDate("1995-09-01")
	q14Hi = storage.MustParseDate("1995-10-01")
)

func q14Plan() plan.Node {
	promoRev := &expr.Case{
		Whens: []expr.CaseWhen{{
			Cond: &expr.Like{X: col("p_type"), Pattern: "PROMO%"},
			Then: revenueExpr(),
		}},
	}
	return &plan.Map{
		Input: &plan.Aggregate{
			Input: &plan.Join{
				Probe: &plan.Scan{
					Table: "lineitem",
					Filter: and(
						cmp(expr.GE, col("l_shipdate"), date("1995-09-01")),
						cmp(expr.LT, col("l_shipdate"), date("1995-10-01")),
					),
				},
				Build:    &plan.Scan{Table: "part"},
				ProbeKey: "l_partkey",
				BuildKey: "p_partkey",
			},
			Aggs: []plan.AggSpec{
				{Func: plan.Sum, Arg: promoRev, As: "promo"},
				{Func: plan.Sum, Arg: revenueExpr(), As: "total"},
			},
		},
		Exprs: []plan.NamedExpr{{
			Expr: div(mul(col("promo"), num(10000)), col("total")),
			As:   "promo_revenue",
		}},
	}
}

// q14Promo precomputes the PROMO% match per p_type dictionary code — the
// "small hash table computed on the fly during an initial scan of part"
// from the paper, realized on dictionary codes.
func q14Promo(d *Data) []byte {
	return d.Part.TypeDict.MatchPred(func(s string) bool {
		return strings.HasPrefix(s, "PROMO")
	})
}

func q14Finalize(promo, total int64) Rows {
	if total == 0 {
		return Rows{{0}}
	}
	return Rows{{promo * 10000 / total}}
}

func q14DataCentric(d *Data) Rows {
	isPromo := q14Promo(d)
	li := &d.Lineitem
	var promo, total int64
	for i := range li.ShipDate {
		if li.ShipDate[i] >= q14Lo && li.ShipDate[i] < q14Hi {
			rev := int64(li.ExtendedPrice[i]) * (100 - int64(li.Discount[i]))
			total += rev
			// Index join: p_partkey is dense, so the foreign key is the
			// part row.
			if isPromo[d.Part.Type[li.PartKey[i]]] == 1 {
				promo += rev
			}
		}
	}
	return q14Finalize(promo, total)
}
