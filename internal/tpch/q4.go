package tpch

import (
	"sort"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// TPC-H Q4: order priority checking. A semijoin — orders (with a ~4%
// selective date predicate) that have at least one lineitem received later
// than committed — grouped by order priority.
//
// Paper result: most of the runtime is the semijoin's build over lineitem;
// hybrid gains 1.5x from the prepass; SWOLE gains another 2.63x — the
// paper's largest TPC-H win — by replacing the hash table with a
// positional bitmap over order positions built in a sequential scan of
// lineitem and probed positionally during a sequential scan of orders
// (Section IV-A3).
//
// Canonical output: (o_orderpriority, order_count) ordered by priority.

var (
	q4Lo = storage.MustParseDate("1993-07-01")
	q4Hi = storage.MustParseDate("1993-10-01")
)

func q4Plan() plan.Node {
	return &plan.Sort{
		Input: &plan.Aggregate{
			Input: &plan.Join{
				Probe: &plan.Scan{
					Table: "orders",
					Filter: and(
						cmp(expr.GE, col("o_orderdate"), date("1993-07-01")),
						cmp(expr.LT, col("o_orderdate"), date("1993-10-01")),
					),
				},
				Build: &plan.Scan{
					Table:  "lineitem",
					Filter: cmp(expr.LT, col("l_commitdate"), col("l_receiptdate")),
				},
				ProbeKey: "o_orderkey",
				BuildKey: "l_orderkey",
				Semi:     true,
			},
			GroupBy: []string{"o_orderpriority"},
			Aggs:    []plan.AggSpec{{Func: plan.Count, As: "order_count"}},
		},
		Keys: []plan.SortKey{{Col: "o_orderpriority"}},
	}
}

// q4Finalize renders the per-priority counts.
func q4Finalize(counts []int64) Rows {
	var rows Rows
	for p, c := range counts {
		if c > 0 {
			rows = append(rows, []int64{int64(p), c})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a][0] < rows[b][0] })
	return rows
}

func q4DataCentric(d *Data) Rows {
	li := &d.Lineitem
	set := ht.NewSetTable(len(d.Orders.CustKey) / 8)
	for i := range li.OrderKey {
		if li.CommitDate[i] < li.ReceiptDate[i] {
			set.Add(int64(li.OrderKey[i]))
		}
	}
	counts := make([]int64, len(priorities))
	o := &d.Orders
	for i := range o.OrderDate {
		if o.OrderDate[i] >= q4Lo && o.OrderDate[i] < q4Hi {
			if set.Contains(int64(i)) { // o_orderkey is dense: key == row
				counts[o.OrderPriority[i]]++
			}
		}
	}
	return q4Finalize(counts)
}

func q4Hybrid(d *Data) Rows {
	li := &d.Lineitem
	set := ht.NewSetTable(len(d.Orders.CustKey) / 8)
	var cmpv, tmp [vec.TileSize]byte
	var idx [vec.TileSize]int32
	vec.Tiles(len(li.OrderKey), func(base, length int) {
		vec.CmpCols(vec.LT, li.CommitDate[base:base+length], li.ReceiptDate[base:base+length], cmpv[:])
		n := vec.SelFromCmpNoBranch(cmpv[:length], idx[:])
		ok := li.OrderKey[base : base+length]
		for j := 0; j < n; j++ {
			set.Add(int64(ok[idx[j]]))
		}
	})
	counts := make([]int64, len(priorities))
	o := &d.Orders
	vec.Tiles(len(o.OrderDate), func(base, length int) {
		od := o.OrderDate[base : base+length]
		vec.CmpConstGEU(od, q4Lo, cmpv[:])
		vec.CmpConstLTU(od, q4Hi, tmp[:])
		vec.And(cmpv[:length], tmp[:length])
		n := vec.SelFromCmpNoBranch(cmpv[:length], idx[:])
		prio := o.OrderPriority[base : base+length]
		for j := 0; j < n; j++ {
			i := idx[j]
			if set.Contains(int64(base) + int64(i)) {
				counts[prio[i]]++
			}
		}
	})
	return q4Finalize(counts)
}

// q4Swole replaces the semijoin hash table with a positional bitmap over
// order positions (Section III-D): a sequential scan of lineitem ORs each
// tuple's predicate bit into the position of its order (through the
// foreign-key index, here the dense l_orderkey itself); a second
// sequential scan of orders tests the bit positionally and masks the
// per-priority count.
func q4Swole(d *Data) Rows {
	li := &d.Lineitem
	nOrders := len(d.Orders.CustKey)
	bm := newOrderBitmap(nOrders)
	var cmpv, tmp [vec.TileSize]byte
	vec.Tiles(len(li.OrderKey), func(base, length int) {
		vec.CmpCols(vec.LT, li.CommitDate[base:base+length], li.ReceiptDate[base:base+length], cmpv[:])
		ok := li.OrderKey[base : base+length]
		for j := 0; j < length; j++ {
			bm.OrBit(int(ok[j]), cmpv[j])
		}
	})
	counts := make([]int64, len(priorities))
	o := &d.Orders
	vec.Tiles(len(o.OrderDate), func(base, length int) {
		od := o.OrderDate[base : base+length]
		vec.CmpConstGEU(od, q4Lo, cmpv[:])
		vec.CmpConstLTU(od, q4Hi, tmp[:])
		vec.And(cmpv[:length], tmp[:length])
		prio := o.OrderPriority[base : base+length]
		for j := 0; j < length; j++ {
			m := cmpv[j] & bm.TestBit(base+j)
			counts[prio[j]] += int64(m)
		}
	})
	return q4Finalize(counts)
}
