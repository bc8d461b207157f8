package swole

import (
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// TestFilterConstantsOutsideWidth: a constant outside its column's stored
// width — an int8 l_quantity or p_size against 300, -500 or 1000, an int16
// l_shipdate against -40000 — matches every row or none, and the one-pass
// filter kernel clamps such a leaf to the full range or the empty one where
// the tile walker widened the tile to int64. Each statement, and its NOT,
// agrees with the interpreter on every path, as a root filter and as an
// edge's, and where the CPU runs the kernel the root filter runs in it.
func TestFilterConstantsOutsideWidth(t *testing.T) {
	d := LoadTPCH(0.01)
	defer d.Close()
	d.SetWorkers(1)
	for _, tc := range []struct{ q, filter string }{
		{"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity < 300", "cmp(i8)/avx2"},
		{"select count(*) as n, sum(l_extendedprice) as s from lineitem where not (l_quantity < 300)", "cmp(i8)/avx2"},
		{"select l_shipmode, count(*) as n from lineitem where l_quantity > -500 group by l_shipmode", "cmp(i8)/avx2"},
		{"select l_shipmode, count(*) as n from lineitem where not (l_quantity > -500) group by l_shipmode", "cmp(i8)/avx2"},
		{"select count(*) as n, min(l_quantity) as q from lineitem where l_shipdate >= -40000", "cmp(i16)/avx2"},
		{"select count(*) as n, min(l_quantity) as q from lineitem where not (l_shipdate >= -40000)", "cmp(i16)/avx2"},
		{"select count(*) as n, sum(p_size) as s from part where p_size between -5 and 1000", "cmp(i8)/avx2"},
		{"select count(*) as n, sum(p_size) as s from part where not (p_size between -5 and 1000)", "cmp(i8)/avx2"},
		{"select count(*) as n, sum(l_quantity) as q from lineitem, part where l_partkey = p_partkey and p_size between -5 and 1000", ""},
		{"select count(*) as n, sum(l_quantity) as q from lineitem, part where l_partkey = p_partkey and not (p_size between -5 and 1000)", ""},
		{"select p_brand, count(*) as n from lineitem, part where l_partkey = p_partkey and l_quantity < 300 and not (p_size between -5 and 1000) group by p_brand", "cmp(i8)/avx2"},
	} {
		checkEveryPath(t, d, tc.q, "")
		_, ex, err := d.QuerySwole(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.filter; vec.HasAVX2 && ex.Filter != want {
			t.Errorf("%q: filter %q, want %q", tc.q, ex.Filter, want)
		}
	}
}
