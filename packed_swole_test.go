package swole

import (
	"fmt"
	"math"
	"testing"
)

// The packed group record: a one-lane key-addressed table keeps sum<<32 +
// count in one word when rows × the argument's physical range stays under
// 2^31. These tests pin the rule's boundary from outside — Explain.HTBytes
// is domain×8 exactly when the form is packed — and hold every path to the
// interpreter on both sides of it.

// packedRows is the largest row count over which an int16 sum packs.
const packedRows = 65_535

// packedDB is a fact table t of packedRows rows and a dimension d:
//
//	k     5 keys; key 0 holds 7/8 of the rows, so its sums run toward ±2^31
//	x     [0, 100), the filter column
//	v16   int16: key 0's rows all -32768, the others at both ends and between
//	v8    int8, laid out the same way at -128 and 127
//	w32   int32 (±100,000): never packs
//	big   int64 near MaxInt64/3: every sum over it wraps
//	t_fk  [0, 1000) into d_pk
func packedDB(t testing.TB) *DB {
	t.Helper()
	n := packedRows
	cols := map[string][]int64{}
	for _, c := range []string{"k", "x", "v16", "v8", "w32", "big", "t_fk"} {
		cols[c] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		k := int64(0)
		if i%8 == 7 {
			k = 1 + int64(i/8%4)
		}
		cols["k"][i] = k
		cols["x"][i] = int64(i * 37 % 100)
		switch {
		case k == 0:
			cols["v16"][i], cols["v8"][i] = math.MinInt16, math.MinInt8
		case i%3 == 0:
			cols["v16"][i], cols["v8"][i] = math.MaxInt16, math.MaxInt8
		case i%3 == 1:
			cols["v16"][i], cols["v8"][i] = math.MinInt16, math.MinInt8
		default:
			cols["v16"][i], cols["v8"][i] = int64(i%2001-1000), int64(i%201-100)
		}
		cols["w32"][i] = int64(i%200_001 - 100_000)
		cols["big"][i] = math.MaxInt64/3 + int64(i)
		cols["t_fk"][i] = int64(i % 1000)
	}
	d := NewDB()
	pk, dx := make([]int64, 1000), make([]int64, 1000)
	for i := range pk {
		pk[i], dx[i] = int64(i), int64(i*53%100)
	}
	if err := d.CreateTable("d", IntColumn("d_pk", pk), IntColumn("d_x", dx)); err != nil {
		t.Fatal(err)
	}
	var tc []Column
	for _, c := range []string{"k", "x", "v16", "v8", "w32", "big", "t_fk"} {
		tc = append(tc, IntColumn(c, cols[c]))
	}
	if err := d.CreateTable("t", tc...); err != nil {
		t.Fatal(err)
	}
	if err := d.AddForeignKey("t", "t_fk", "d", "d_pk"); err != nil {
		t.Fatal(err)
	}
	smallMorsels(d)
	return d
}

// packedStatements: the classic group-by, count(*), and the other one-lane
// grouped statements — the eager groupjoin among them — over each argument, with the domain and accumulator lanes of
// their table and whether it packs at packedRows rows and after one more.
var packedStatements = []struct {
	q             string
	domain, lanes int
	packed, after bool
}{
	{"select k, sum(v16) from t group by k", 5, 1, true, false},
	{"select k, sum(v16) from t where x < 50 and k < 4 group by k", 5, 1, true, false},
	{"select k, sum(v8) from t where x < 90 group by k", 5, 1, true, true},
	{"select k, count(*) from t where x < 50 group by k", 5, 1, true, true},
	{"select k, sum(v16) as s, count(*) as n from t where x < 50 and k < 4 group by k", 5, 1, true, false},
	{"select k, avg(v8) as a, count(*) as n from t group by k", 5, 1, true, true},
	{"select t_fk, sum(v16) from t, d where t_fk = d_pk and d_x < 50 group by t_fk", 1000, 1, true, false},
	{"select k, sum(w32) from t group by k", 5, 1, false, false},
	{"select k, sum(v16 + 1) from t group by k", 5, 1, false, false},
	{"select k, sum(v8) as s, max(v8) as m from t group by k", 5, 2, false, false},
}

// checkPackedForm runs q through QuerySwole and checks the table it reports:
// 8 bytes a record when packed, 8×(lanes+1) when not, for the domain's
// records and the throwaway record, beside a join edge's bitmap.
func checkPackedForm(t *testing.T, d *DB, q, tag string, domain, lanes int, packed bool) {
	t.Helper()
	_, ex, err := d.QuerySwole(q)
	if err != nil {
		t.Fatalf("%s %q: %v", tag, q, err)
	}
	want := (domain + 1) * 8 * (lanes + 1)
	if packed {
		want = (domain + 1) * 8
	}
	want += int(ex.Costs["edge0-bitmap-bytes"])
	if ex.DenseDomain != domain || ex.HTBytes != want {
		t.Errorf("%s %q: DenseDomain=%d HTBytes=%d, want %d and %d (packed=%v)", tag, q, ex.DenseDomain, ex.HTBytes, domain, want, packed)
	}
}

// TestPackedFormBoundary: at 65,535 rows an int16 sum packs and answers as
// the interpreter does under every technique, at one and two workers (two
// workers' packed tables merge by word addition); one appended row later the recompiled plans are int64
// and still answer the same. int32 and expression arguments, and a second
// lane, never pack.
func TestPackedFormBoundary(t *testing.T) {
	d := packedDB(t)
	defer d.Close()
	for _, after := range []bool{false, true} {
		if after {
			if err := d.AppendRows("t", [][]int64{{1, 0, 7, 7, 7, 7, 7}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			d.SetWorkers(workers)
			tag := fmt.Sprintf("appended=%v workers=%d", after, workers)
			for _, s := range packedStatements {
				packed := s.packed
				if after {
					packed = s.after
				}
				checkPackedForm(t, d, s.q, tag, s.domain, s.lanes, packed)
				checkEveryPath(t, d, s.q, tag, false)
			}
		}
	}
	d.SetWorkers(0)
}

// TestSumOverflowWraps: sums wrap at 64 bits, in two's complement, the same
// on every path — the tile pipeline scalar and grouped (both on the gang),
// the classic group-by's pair emission, the groupjoin, every forced
// technique — as in the interpreter.
func TestSumOverflowWraps(t *testing.T) {
	d := packedDB(t)
	defer d.Close()
	var want int64
	for i := 0; i < packedRows; i++ {
		want += math.MaxInt64/3 + int64(i)
	}
	for _, workers := range []int{1, 2} {
		d.SetWorkers(workers)
		tag := fmt.Sprintf("workers=%d", workers)
		for _, q := range []string{
			"select sum(big) as s from t",
			"select sum(big) as s, count(*) as n from t where x < 50",
			"select k, sum(big) from t group by k",
			"select k, sum(big) from t where x < 50 group by k",
			"select k, sum(big) as s, count(*) as n from t where x < 50 group by k",
			"select t_fk, sum(big) from t, d where t_fk = d_pk and d_x < 50 group by t_fk",
		} {
			rows := checkEveryPath(t, d, q, tag, false)
			if q == "select sum(big) as s from t" && rows[0][0] != want {
				t.Fatalf("%s: sum(big) = %d, want the wrapped %d", tag, rows[0][0], want)
			}
		}
	}
	d.SetWorkers(0)
}
