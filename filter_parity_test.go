package swole

import (
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// TestFilterConstantsOutsideWidth: a constant outside its column's stored
// width — an int8 l_quantity or p_size against 300, -500 or 1000, an int16
// l_shipdate against -40000 — matches every row or none, and the one-pass
// filter kernel clamps such a leaf to the full range or the empty one where
// the tile walker widened the tile to int64. The tile walker clamps it the
// same way where the kernel declines the filter (eval): an int32 leaf in the
// clause, or an OR over an AND. A scalar int8 sum folds through the filter's
// kernel (vec.Filter.Fold) where the filter has at most two leaves, at int8
// or int16, ANDed or ORed, BETWEEN, NOT and the clamped constant among them;
// over three leaves it reads the kernel's mask (…/scalar/value). Each
// statement, and its NOT, agrees with the interpreter on every path, as a
// root filter and as an edge's, and where the CPU runs the kernels the root
// filter runs in the one named, and the fold key is the one named.
func TestFilterConstantsOutsideWidth(t *testing.T) {
	d := LoadTPCH(0.01)
	defer d.Close()
	d.SetWorkers(1)
	for _, tc := range []struct{ q, filter, kernel string }{
		{"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity < 300", "cmp(i8)/avx2", ""},
		{"select count(*) as n, sum(l_extendedprice) as s from lineitem where not (l_quantity < 300)", "cmp(i8)/avx2", ""},
		{"select l_shipmode, count(*) as n from lineitem where l_quantity > -500 group by l_shipmode", "cmp(i8)/avx2", ""},
		{"select l_shipmode, count(*) as n from lineitem where not (l_quantity > -500) group by l_shipmode", "cmp(i8)/avx2", ""},
		{"select count(*) as n, min(l_quantity) as q from lineitem where l_shipdate >= -40000", "cmp(i16)/avx2", ""},
		{"select count(*) as n, min(l_quantity) as q from lineitem where not (l_shipdate >= -40000)", "cmp(i16)/avx2", ""},
		{"select count(*) as n, sum(p_size) as s from part where p_size between -5 and 1000", "fold", ""},
		{"select count(*) as n, sum(p_size) as s from part where not (p_size between -5 and 1000)", "fold", ""},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where not (l_quantity between -5 and 30) and l_discount < 300", "fold", ""},
		{"select count(*) as n, sum(l_quantity * l_discount) as q from lineitem where l_quantity between -500 and 24 and not (l_discount between 2 and 300)", "fold", ""},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where l_quantity < 300 or l_discount > 5", "fold", "sum(i8)/scalar/cmp(i8|i8)/avx2"},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where not (l_quantity < 300 or l_discount > 5)", "fold", "sum(i8)/scalar/cmp(i8,i8)/avx2"},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where l_shipdate >= -40000 and l_discount < 5", "fold", "sum(i8)/scalar/cmp(i16,i8)/avx2"},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where not (l_shipdate >= -40000 and l_discount < 5)", "fold", "sum(i8)/scalar/cmp(i16|i8)/avx2"},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where l_quantity < 300 and l_discount < 5 and l_shipdate >= -40000", "cmp(i8,i8,i16)/avx2", "sum(i8)/scalar/value"},
		{"select count(*) as n, sum(l_quantity) as q from lineitem where not (l_quantity < 300 and l_discount < 5 and l_shipdate >= -40000)", "cmp(i8|i8|i16)/avx2", "sum(i8)/scalar/value"},
		{"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity < 300 or l_extendedprice < 100000", "eval", ""},
		{"select count(*) as n, sum(l_extendedprice) as s from lineitem where not (l_quantity > -500) or l_extendedprice < 100000", "eval", ""},
		{"select count(*) as n, min(l_quantity) as q from lineitem where l_shipdate >= -40000 or l_extendedprice < 5", "eval", ""},
		{"select count(*) as n, min(l_quantity) as q from lineitem where not (l_shipdate between -40000 and 40000) or l_extendedprice < 5", "eval", ""},
		{"select l_shipmode, count(*) as n from lineitem where (l_quantity > -500 and l_shipdate < 40000) or l_discount = 3 group by l_shipmode", "eval", ""},
		{"select l_shipmode, count(*) as n from lineitem where (l_quantity < 300 and not (l_shipdate between -40000 and 5)) or l_discount = 3 group by l_shipmode", "eval", ""},
		{"select count(*) as n, sum(l_quantity) as q from lineitem, part where l_partkey = p_partkey and p_size between -5 and 1000", "", ""},
		{"select count(*) as n, sum(l_quantity) as q from lineitem, part where l_partkey = p_partkey and not (p_size between -5 and 1000)", "", ""},
		{"select p_brand, count(*) as n from lineitem, part where l_partkey = p_partkey and l_quantity < 300 and not (p_size between -5 and 1000) group by p_brand", "cmp(i8)/avx2", ""},
	} {
		checkEveryPath(t, d, tc.q, "")
		_, ex, err := d.QuerySwole(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.filter; vec.HasAVX2 && ex.Filter != want {
			t.Errorf("%q: filter %q, want %q", tc.q, ex.Filter, want)
		}
		if want := tc.kernel; vec.HasAVX2 && want != "" && ex.Kernel != want {
			t.Errorf("%q: %s, kernel %q, want %q", tc.q, ex.Technique, ex.Kernel, want)
		}
	}
}
