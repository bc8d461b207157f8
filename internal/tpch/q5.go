package tpch

import (
	"sort"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// TPC-H Q5: local supplier volume. Six tables; the unfiltered lineitem
// join dominates, with the extra condition that the supplier's nation
// equals the customer's nation.
//
// Paper result: hybrid gains only 1.12x; SWOLE gains 2.55x by replacing
// the joins with bitmap semijoins and using late materialization before
// the final aggregation — only ~3% of tuples survive the last join
// (Section IV-A4).
//
// Canonical output: (n_name, revenue) ordered by revenue desc, name.

var (
	q5Lo = storage.MustParseDate("1994-01-01")
	q5Hi = storage.MustParseDate("1995-01-01")
)

func q5Plan() plan.Node {
	return &plan.Sort{
		Input: &plan.Aggregate{
			Input: &plan.Join{
				Probe: &plan.Join{
					Probe: &plan.Scan{Table: "lineitem"},
					Build: &plan.Join{
						Probe: &plan.Scan{
							Table: "orders",
							Filter: and(
								cmp(expr.GE, col("o_orderdate"), date("1994-01-01")),
								cmp(expr.LT, col("o_orderdate"), date("1995-01-01")),
							),
						},
						Build: &plan.Join{
							Probe: &plan.Scan{Table: "customer"},
							Build: &plan.Join{
								Probe: &plan.Scan{Table: "nation"},
								Build: &plan.Scan{
									Table:  "region",
									Filter: cmp(expr.EQ, col("r_name"), str("ASIA")),
								},
								ProbeKey: "n_regionkey",
								BuildKey: "r_regionkey",
							},
							ProbeKey: "c_nationkey",
							BuildKey: "n_nationkey",
						},
						ProbeKey: "o_custkey",
						BuildKey: "c_custkey",
					},
					ProbeKey: "l_orderkey",
					BuildKey: "o_orderkey",
				},
				Build:    &plan.Scan{Table: "supplier"},
				ProbeKey: "l_suppkey",
				BuildKey: "s_suppkey",
				Residual: cmp(expr.EQ, col("c_nationkey"), col("s_nationkey")),
			},
			GroupBy: []string{"n_name"},
			Aggs:    []plan.AggSpec{{Func: plan.Sum, Arg: revenueExpr(), As: "revenue"}},
		},
		Keys: []plan.SortKey{{Col: "revenue", Desc: true}, {Col: "n_name"}},
	}
}

// q5AsiaNations returns a nation-indexed 0/1 table for region = ASIA.
func q5AsiaNations(d *Data) []byte {
	asia := int8(codeOf(d.Region.NameDict, "ASIA"))
	asiaRegion := -1
	for rk, name := range d.Region.Name {
		if name == asia {
			asiaRegion = rk
		}
	}
	out := make([]byte, nationRows)
	for nk, rk := range d.Nation.RegionKey {
		if int(rk) == asiaRegion {
			out[nk] = 1
		}
	}
	return out
}

// q5Finalize renders per-nation revenues.
func q5Finalize(d *Data, revenue, count []int64) Rows {
	var rows Rows
	for nk := range revenue {
		if count[nk] > 0 {
			rows = append(rows, []int64{int64(d.Nation.Name[nk]), revenue[nk]})
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a][1] != rows[b][1] {
			return rows[a][1] > rows[b][1]
		}
		return rows[a][0] < rows[b][0]
	})
	return rows
}

func q5DataCentric(d *Data) Rows {
	inAsia := q5AsiaNations(d)
	o := &d.Orders
	// Qualifying orders: date range and Asian customer; the hash table
	// maps orderkey -> customer nation.
	orders := ht.NewJoinTable(len(o.CustKey) / 8)
	for i := range o.OrderDate {
		if o.OrderDate[i] >= q5Lo && o.OrderDate[i] < q5Hi {
			nk := d.Customer.NationKey[o.CustKey[i]]
			if inAsia[nk] == 1 {
				orders.Insert(int64(i), int32(nk))
			}
		}
	}
	revenue := make([]int64, nationRows)
	count := make([]int64, nationRows)
	li := &d.Lineitem
	for i := range li.OrderKey {
		nkC, ok := orders.Probe(int64(li.OrderKey[i]))
		if !ok {
			continue
		}
		nkS := d.Supplier.NationKey[li.SuppKey[i]]
		if int32(nkS) == nkC {
			revenue[nkC] += int64(li.ExtendedPrice[i]) * (100 - int64(li.Discount[i]))
			count[nkC]++
		}
	}
	return q5Finalize(d, revenue, count)
}

func q5Hybrid(d *Data) Rows {
	inAsia := q5AsiaNations(d)
	o := &d.Orders
	orders := ht.NewJoinTable(len(o.CustKey) / 8)
	var cmpv, tmp [vec.TileSize]byte
	var idx [vec.TileSize]int32
	vec.Tiles(len(o.OrderDate), func(base, length int) {
		od := o.OrderDate[base : base+length]
		vec.CmpConstGEU(od, q5Lo, cmpv[:])
		vec.CmpConstLTU(od, q5Hi, tmp[:])
		vec.And(cmpv[:length], tmp[:length])
		n := vec.SelFromCmpNoBranch(cmpv[:length], idx[:])
		ck := o.CustKey[base : base+length]
		for j := 0; j < n; j++ {
			i := idx[j]
			nk := d.Customer.NationKey[ck[i]]
			if inAsia[nk] == 1 {
				orders.Insert(int64(base)+int64(i), int32(nk))
			}
		}
	})
	revenue := make([]int64, nationRows)
	count := make([]int64, nationRows)
	li := &d.Lineitem
	vec.Tiles(len(li.OrderKey), func(base, length int) {
		ok := li.OrderKey[base : base+length]
		sk := li.SuppKey[base : base+length]
		price := li.ExtendedPrice[base : base+length]
		disc := li.Discount[base : base+length]
		for j := 0; j < length; j++ {
			nkC, found := orders.Probe(int64(ok[j]))
			if !found {
				continue
			}
			nkS := d.Supplier.NationKey[sk[j]]
			if int32(nkS) == nkC {
				revenue[nkC] += int64(price[j]) * (100 - int64(disc[j]))
				count[nkC]++
			}
		}
	})
	return q5Finalize(d, revenue, count)
}

// q5Swole replaces the join chain with bitmap semijoins plus late
// materialization (Section III-D): a bitmap over customers (Asian), a
// bitmap over orders (date x Asian customer, built with unconditional
// positional writes), then a lineitem scan that collects only the ~3%
// surviving row ids; the final pass materializes the nation keys for just
// those rows.
func q5Swole(d *Data) Rows {
	inAsia := q5AsiaNations(d)
	// Customer bitmap: sequential scan of customer.
	bmCust := bitmap.New(len(d.Customer.NationKey))
	var cmpv, tmp [vec.TileSize]byte
	vec.Tiles(len(d.Customer.NationKey), func(base, length int) {
		nk := d.Customer.NationKey[base : base+length]
		for j := 0; j < length; j++ {
			cmpv[j] = inAsia[nk[j]]
		}
		bmCust.SetFromCmp(base, cmpv[:length])
	})
	// Orders bitmap: sequential scan of orders probing bmCust positionally.
	o := &d.Orders
	bmOrders := bitmap.New(len(o.OrderDate))
	vec.Tiles(len(o.OrderDate), func(base, length int) {
		od := o.OrderDate[base : base+length]
		vec.CmpConstGEU(od, q5Lo, cmpv[:])
		vec.CmpConstLTU(od, q5Hi, tmp[:])
		vec.And(cmpv[:length], tmp[:length])
		ck := o.CustKey[base : base+length]
		for j := 0; j < length; j++ {
			cmpv[j] &= bmCust.TestBit(int(ck[j]))
		}
		bmOrders.SetFromCmp(base, cmpv[:length])
	})
	// Lineitem scan: collect surviving row ids (late materialization).
	li := &d.Lineitem
	var survivors []int32
	var idx [vec.TileSize]int32
	vec.Tiles(len(li.OrderKey), func(base, length int) {
		ok := li.OrderKey[base : base+length]
		for j := 0; j < length; j++ {
			cmpv[j] = bmOrders.TestBit(int(ok[j]))
		}
		n := vec.SelFromCmpNoBranch(cmpv[:length], idx[:])
		for j := 0; j < n; j++ {
			survivors = append(survivors, int32(base)+idx[j])
		}
	})
	// Final aggregation over the survivors only.
	revenue := make([]int64, nationRows)
	count := make([]int64, nationRows)
	for _, i := range survivors {
		nkC := d.Customer.NationKey[o.CustKey[li.OrderKey[i]]]
		nkS := d.Supplier.NationKey[li.SuppKey[i]]
		if nkC == nkS {
			revenue[nkC] += int64(li.ExtendedPrice[i]) * (100 - int64(li.Discount[i]))
			count[nkC]++
		}
	}
	return q5Finalize(d, revenue, count)
}
