package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keyFixture packs random key tuples drawn from per-column value lists
// through groupKeys and checks the properties the executor relies on: equal
// tuples get equal keys, no key is negative, decode returns the tuple, and
// keys order as the tuples order lexicographically. Columns whose keys do
// not pack must be refused with ErrKeysUnpacked.
func keyFixture(t *testing.T, name string, vals [][]int64, wantPacked bool) {
	t.Helper()
	nk := len(vals)
	lo, hi := make([]int64, nk), make([]int64, nk)
	for c, vs := range vals {
		lo[c], hi[c] = slices.Min(vs), slices.Max(vs)
	}
	g, domain, err := planGroupKeys(lo, hi)
	if !wantPacked {
		if !errors.Is(err, ErrKeysUnpacked) || domain != 0 {
			t.Fatalf("%s: domain %d, err %v; want ErrKeysUnpacked", name, domain, err)
		}
		return
	}
	if err != nil || domain == 0 {
		t.Fatalf("%s: domain %d, err %v; want packed", name, domain, err)
	}
	for c := 0; c < nk; c++ {
		g.cols = append(g.cols, c)
	}

	r := rand.New(rand.NewSource(1))
	const lanes = 700
	vecs := make([][]int64, nk)
	for c := range vecs {
		vecs[c] = make([]int64, lanes)
		for i := range vecs[c] {
			vecs[c][i] = vals[c][r.Intn(len(vals[c]))]
		}
	}
	keys := g.fill(vecs, lanes, make([]int64, lanes))
	tuple := func(i int) []int64 {
		out := make([]int64, nk)
		for c := range out {
			out[c] = vecs[c][i]
		}
		return out
	}
	got, cols := make([]int64, nk), make([][]int64, nk)
	for c := range cols {
		cols[c] = got[c : c+1]
	}
	for i := 0; i < lanes; i++ {
		if keys[i] < 0 || uint64(keys[i]) >= domain {
			t.Fatalf("%s: key %d outside [0, %d): it could collide with ht.NullKey", name, keys[i], domain)
		}
		g.decode(keys[i], cols, 0)
		if !slices.Equal(got, tuple(i)) {
			t.Fatalf("%s: decode(%d) = %v, want %v", name, keys[i], got, tuple(i))
		}
		for j := 0; j < i; j += 37 {
			cmpTuples, cmpKeys := slices.Compare(tuple(i), tuple(j)), 0
			if a, b := keys[i], keys[j]; a < b {
				cmpKeys = -1
			} else if a > b {
				cmpKeys = 1
			}
			if cmpTuples != cmpKeys {
				t.Fatalf("%s: tuples %v vs %v compare %d, keys compare %d", name, tuple(i), tuple(j), cmpTuples, cmpKeys)
			}
		}
	}
}

func TestGroupKeysPackOrRefuse(t *testing.T) {
	wide := []int64{math.MinInt64, math.MinInt64 + 1, -3, 0, 9, math.MaxInt64 - 1, math.MaxInt64}
	keyFixture(t, "one narrow column", [][]int64{{-128, -1, 0, 5, 127}}, true)
	keyFixture(t, "bottom of int64", [][]int64{{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 4}}, true)
	keyFixture(t, "three packed columns", [][]int64{{0, 1, 2}, {-40_000, 0, 25_000}, {7, 8, 1 << 33}}, true)
	keyFixture(t, "63 bits exactly", [][]int64{{0, 1<<31 - 1}, {0, 1<<32 - 1}}, true)
	keyFixture(t, "2^63 values in one column", [][]int64{{0, math.MaxInt64}}, true)
	keyFixture(t, "2^63+1 values in one column", [][]int64{{-1, math.MaxInt64}}, false)
	keyFixture(t, "64 bits", [][]int64{{0, 1<<32 - 1}, {0, 1<<32 - 1}}, false)
	keyFixture(t, "full-range column", [][]int64{wide}, false)
	keyFixture(t, "two full-range columns", [][]int64{wide, wide}, false)
	keyFixture(t, "narrow column under a full-range one", [][]int64{wide, {0, 1, 2, 3}, wide}, false)
}
