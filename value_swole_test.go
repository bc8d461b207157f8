package swole

import (
	"fmt"
	"math"
	"testing"
)

// Value addressing: a lone GROUP BY column whose range a key-addressed group
// table covers addresses that table by its own values, with no key packing.
// These tests hold every key type on both sides of the rule to the
// interpreter.

// valueKeysDB is one table of 4,000 rows with a key column of each type:
//
//	kd    a dictionary string, 6 values
//	k8    int8, [-128, -119]: negative at both ends
//	k16   int16, [-30010, -30001]
//	k32   int32, a measured range [1000000, 1000019]
//	k64   int64, [MinInt64, MinInt64+7]: an origin at ht.NullKey
//	x     [0, 100), the filter column
//	v     int8 values
func valueKeysDB(t testing.TB) *DB {
	t.Helper()
	const n = 4000
	ints := map[string][]int64{}
	names := []string{"k8", "k16", "k32", "k64", "x", "v"}
	for _, c := range names {
		ints[c] = make([]int64, n)
	}
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		strs[i] = []string{"AIR", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"}[i*5%6]
		ints["k8"][i] = -128 + int64(i%10)
		ints["k16"][i] = -30_010 + int64(i*3%10)
		ints["k32"][i] = 1_000_000 + int64(i*7%20)
		ints["k64"][i] = math.MinInt64 + int64(i%8)
		ints["x"][i] = int64(i * 37 % 100)
		ints["v"][i] = int64(i%255 - 127)
	}
	cols := []Column{StringColumn("kd", strs)}
	for _, c := range names {
		cols = append(cols, IntColumn(c, ints[c]))
	}
	d := NewDB()
	if err := d.CreateTable("t", cols...); err != nil {
		t.Fatal(err)
	}
	smallMorsels(d)
	return d
}

// valueStatements run on the tile pipeline: a fused sum with a max after it,
// a leading min (the count alone fuses), a bare count(*) (a table with no
// lanes), two merged lanes, a single sum lane, and a min over the key
// column, whose tile vector is also the table's keys.
var valueStatements = []string{
	"select %s, sum(v) as s, count(*) as n, max(v) as m from t where x < 50 group by %[1]s",
	"select %s, min(v) as lo, count(*) as n from t group by %[1]s having count(*) > 0",
	"select %s, count(*) as n from t where x < 30 group by %[1]s having count(*) > 1",
	"select %s, sum(v) as s, avg(v) as a from t where x < 70 group by %[1]s",
	"select %s, sum(v) as s, count(*) as n from t where x < 50 group by %[1]s",
	"select %s, count(*) as n, min(%[1]s) as lo from t where x < 40 group by %[1]s",
}

// TestValueAddressingParity: each key type under each statement answers as
// the interpreter does cold, warm and under every forced technique, at one
// and two workers, over a key-addressed table of the column's domain; after a row outside every int range is appended, the
// recompiled plans still do.
func TestValueAddressingParity(t *testing.T) {
	d := valueKeysDB(t)
	defer d.Close()
	domains := map[string]int{"kd": 6, "k8": 10, "k16": 10, "k32": 20, "k64": 8}
	for _, after := range []bool{false, true} {
		if after {
			// kd, k8, k16, k32, k64, x, v
			if err := d.AppendRows("t", [][]int64{{0, 5, 100, 5, math.MinInt64 + 100, 0, 7}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			d.SetWorkers(workers)
			for _, key := range []string{"kd", "k8", "k16", "k32", "k64"} {
				for _, stmt := range valueStatements {
					q := fmt.Sprintf(stmt, key)
					tag := fmt.Sprintf("appended=%v workers=%d", after, workers)
					checkEveryPath(t, d, q, tag)
					if _, ex, err := d.QuerySwole(q); err != nil {
						t.Fatalf("%s %q: %v", tag, q, err)
					} else if !after && ex.DenseDomain != domains[key] {
						t.Errorf("%s %q: DenseDomain %d, want %d", tag, q, ex.DenseDomain, domains[key])
					}
				}
			}
		}
	}
	d.SetWorkers(0)
}
