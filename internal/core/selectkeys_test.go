package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keyFixture resolves random key tuples drawn from per-column value lists
// through groupKeys and checks the three properties the executor relies on:
// equal tuples get equal keys, decode returns the tuple, and sortKey orders
// keys as the tuples order lexicographically.
func keyFixture(t *testing.T, name string, vals [][]int64, wantPacked bool) {
	t.Helper()
	nk := len(vals)
	lo, hi := make([]int64, nk), make([]int64, nk)
	for c, vs := range vals {
		lo[c], hi[c] = slices.Min(vs), slices.Max(vs)
	}
	g, domain := planGroupKeys(lo, hi)
	if packed := domain > 0; packed != wantPacked {
		t.Fatalf("%s: packed=%t (domain %d), want %t", name, packed, domain, wantPacked)
	}
	for c := 0; c < nk; c++ {
		g.cols = append(g.cols, c)
	}
	g.alloc(4)

	r := rand.New(rand.NewSource(1))
	var sorter groupEmit
	for run := 0; run < 2; run++ { // the second run reuses reset dictionaries
		g.reset()
		const lanes = 700
		vecs := make([][]int64, nk)
		for c := range vecs {
			vecs[c] = make([]int64, lanes)
			for i := range vecs[c] {
				vecs[c][i] = vals[c][r.Intn(len(vals[c]))]
			}
		}
		keys := make([]int64, lanes)
		g.fill(vecs, lanes/2, keys)
		g.fill(vecs, lanes, keys) // a second tile revisits known tuples
		g.rank(&sorter)
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
			if keys[i] < 0 {
				t.Fatalf("%s: negative table key %d could collide with ht.NullKey", name, keys[i])
			}
			g.decode(keys[i], cols, 0)
			if !slices.Equal(got, tuple(i)) {
				t.Fatalf("%s: decode(%d) = %v, want %v", name, keys[i], got, tuple(i))
			}
			for j := 0; j < i; j += 37 {
				cmpTuples := slices.Compare(tuple(i), tuple(j))
				cmpKeys := 0
				if a, b := g.sortKey(keys[i]), g.sortKey(keys[j]); a < b {
					cmpKeys = -1
				} else if a > b {
					cmpKeys = 1
				}
				if cmpTuples != cmpKeys {
					t.Fatalf("%s: tuples %v vs %v compare %d, sort keys compare %d", name, tuple(i), tuple(j), cmpTuples, cmpKeys)
				}
			}
		}
	}
}

func TestGroupKeysPackAndChain(t *testing.T) {
	wide := []int64{math.MinInt64, math.MinInt64 + 1, -3, 0, 9, math.MaxInt64 - 1, math.MaxInt64}
	keyFixture(t, "one narrow column", [][]int64{{-128, -1, 0, 5, 127}}, true)
	keyFixture(t, "bottom of int64", [][]int64{{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 4}}, true)
	keyFixture(t, "three packed columns", [][]int64{{0, 1, 2}, {-40_000, 0, 25_000}, {7, 8, 1 << 33}}, true)
	keyFixture(t, "63 bits exactly", [][]int64{{0, 1<<31 - 1}, {0, 1<<32 - 1}}, true)
	keyFixture(t, "64 bits", [][]int64{{0, 1<<32 - 1}, {0, 1<<32 - 1}}, false)
	keyFixture(t, "full-range column", [][]int64{wide}, false)
	keyFixture(t, "two full-range columns", [][]int64{wide, wide}, false)
	keyFixture(t, "three-level chain", [][]int64{wide, {0, 1, 2, 3}, wide}, false)
}
