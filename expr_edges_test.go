package swole

import (
	"fmt"
	"testing"
)

// Expression semantics at the edges a predicate pullup exposes: the engine
// evaluates aggregate arguments and later conjuncts on lanes the predicate
// rejected, so division is total (a zero divisor yields 0, in the engine and
// in the interpreter alike) and every operator the grammar accepts — IN with
// column-valued items among them — runs on every path. Each statement below
// panicked one engine or the other while internal/expr had two binders and
// four walkers.

// exprEdgeStatements are valid statements over LoadMicro's r and s.
var exprEdgeStatements = []string{
	// IN items that are columns or arithmetic: root filter, edge filter, grouped.
	"select sum(r_a) as s from r where r_x in (r_y, 3)",
	"select sum(r_a) as s, count(*) as n from r where r_x in (r_y + 1, r_b, 3)",
	"select sum(r_a) as s from r, s where r_fk = s_pk and s_x in (s_pk, 3)",
	"select sum(r_a) as s from r, s where r_fk = s_pk and r_x in (s_x, r_y - 1)",
	"select r_c, sum(r_a) as s from r where r_x in (r_y, 3) group by r_c",
	// A divisor the predicate guards, under the classic group-by.
	"select r_c, sum(r_a / (r_x - 5)) as s from r where r_x <> 5 group by r_c",
	// A root filter that divides.
	"select sum(r_a) as s from r where r_a / (r_x - 5) > 1",
	"select r_c, sum(r_a) as s from r where r_b / r_x >= 2 group by r_c",
	// Nothing guards the divisor: zero divisors contribute 0 on both engines.
	"select sum(r_a / (r_x - 5)) as s from r",
	"select r_c, sum(r_a / r_x) as s, count(*) as n from r group by r_c",
	"select sum(r_a / 0) as s, count(*) as n from r where r_x < 50",
}

func TestExprEdgeStatements(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 10_000, DimRows: 256, GroupKeys: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	smallMorsels(d)
	for _, workers := range []int{1, 2} {
		for _, mode := range []PartitionMode{PartitionAuto, PartitionOn} {
			d.SetWorkers(workers)
			d.SetPartitionMode(mode)
			tag := fmt.Sprintf("workers=%d partition=%s", workers, mode)
			for i, q := range exprEdgeStatements {
				t.Run(fmt.Sprintf("%s/%02d", tag, i), func(t *testing.T) { checkEveryPath(t, d, q, tag, false) })
			}
		}
	}
	d.SetPartitionMode(PartitionAuto)
	d.SetWorkers(0)
}

// The unguarded quotient has the answer the rule defines: rows whose divisor
// is zero add nothing.
func TestDivisionByZeroYieldsZero(t *testing.T) {
	d := NewDB()
	defer d.Close()
	if err := d.CreateTable("t", IntColumn("a", []int64{10, 20, 30, -7}), IntColumn("b", []int64{2, 0, -3, 0})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"select sum(a / b) as s from t", 5 - 10},
		{"select sum(a / 0) as s from t", 0},
		{"select count(*) as n from t where a / b = 0", 2},
		{"select sum(case when b <> 0 then a / b else 1 end) as s from t", 5 + 1 - 10 + 1},
	} {
		base, err := d.Query(tc.q)
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		res, _, err := d.QuerySwole(tc.q)
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		if b, s := base.Rows()[0][0], res.Rows()[0][0]; b != tc.want || s != tc.want {
			t.Errorf("%q: volcano %d, swole %d, want %d", tc.q, b, s, tc.want)
		}
	}
}
