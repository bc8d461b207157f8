package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// The cost of a never-seen statement's statistics and of its whole compile,
// at adhoc_compile's table size and at a 20x larger one (EXPERIMENTS.md,
// "Vectorized statistics"). Every iteration changes a literal, so the
// statistics cache always misses; the sample store is warm after the first.

// microTable is the micro benchmark's r at a given size: r_x and r_y uniform
// over 100 values in one byte, r_a in [1, 100], r_c a four-byte key.
func microTable(rows int) *storage.Database {
	next := rand.New(rand.NewSource(1)).Int63n
	x, y, a, c := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range x {
		x[i], y[i], a[i], c[i] = next(100), next(100), next(100)+1, next(100_000)
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("r",
		storage.Compress("r_x", x, storage.LogInt),
		storage.Compress("r_y", y, storage.LogInt),
		storage.Compress("r_a", a, storage.LogInt),
		storage.Compress("r_c", c, storage.LogInt),
	))
	return db
}

// neverSeen builds a filter of 1, 3 or 6 comparison leaves — one leaf, a
// conjunction of three, a disjunction of two such conjunctions — whose
// literals renew(i) changes, so that it has not been seen before.
func neverSeen(leaves int) (filter expr.Expr, renew func(i int)) {
	fresh, other := &expr.Const{}, &expr.Const{}
	renew = func(i int) { fresh.Val, other.Val = int64(i), int64(-i-1) }
	and3 := func(c *expr.Const) expr.Expr {
		return &expr.Logic{Op: expr.And, Args: []expr.Expr{
			lt("r_x", 50),
			&expr.Cmp{Op: expr.GT, L: expr.NewCol("r_a"), R: &expr.Const{Val: 10}},
			&expr.Cmp{Op: expr.NE, L: expr.NewCol("r_c"), R: c},
		}}
	}
	switch leaves {
	case 1:
		return &expr.Cmp{Op: expr.LT, L: expr.NewCol("r_c"), R: fresh}, renew
	case 3:
		return and3(fresh), renew
	}
	return &expr.Logic{Op: expr.Or, Args: []expr.Expr{and3(fresh), and3(other)}}, renew
}

func BenchmarkSelectivityMiss(b *testing.B) {
	for _, rows := range []int{50_000, 1_000_000} {
		db := microTable(rows)
		r := db.MustTable("r")
		for _, leaves := range []int{1, 3, 6} {
			b.Run(fmt.Sprintf("rows=%d/leaves=%d", rows, leaves), func(b *testing.B) {
				e := NewEngine(db)
				filter, renew := neverSeen(leaves)
				if err := expr.Bind(filter, expr.Columns(r)); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					renew(i)
					if _, hit := e.selectivity(r, filter); hit {
						b.Fatal("statistics cache hit")
					}
				}
			})
		}
	}
}

func BenchmarkPrepareSelectNeverSeen(b *testing.B) {
	for _, rows := range []int{50_000, 1_000_000} {
		db := microTable(rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			e := NewEngine(db)
			defer e.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				filter, renew := neverSeen(6)
				renew(i)
				p, err := e.PrepareSelect(Select{
					Root: "r", Filter: filter, GroupBy: []string{"r_y"},
					Aggs: []SelectAgg{{Kind: AggSum, Arg: expr.NewCol("r_a"), As: "s"}, {Kind: AggCount, As: "n"}},
					Project: []SelectProj{
						{Expr: expr.NewCol("r_y"), As: "r_y"}, {Expr: expr.NewCol("s"), As: "s"}, {Expr: expr.NewCol("n"), As: "n"},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if p.ex.StatsCached {
					b.Fatal("statistics cache hit")
				}
			}
		})
	}
}
