package storage

import (
	"math"
	"math/rand"
	"testing"
)

// kindColumns returns one column per physical width over pseudo-random
// values that span the width's range.
func kindColumns(n int) []*Column {
	r := rand.New(rand.NewSource(11))
	spans := []int64{1 << 6, 1 << 14, 1 << 30, math.MaxInt64}
	cols := make([]*Column, len(spans))
	for k, span := range spans {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(span) - span/2
		}
		if k == 3 && n > 1 {
			vals[0], vals[1] = math.MinInt64, math.MaxInt64
		}
		cols[k] = Compress("c", vals, LogInt)
	}
	return cols
}

func TestGatherIntoMatchesGet(t *testing.T) {
	const n = 3000
	r := rand.New(rand.NewSource(5))
	for _, c := range kindColumns(n) {
		for _, m := range []int{0, 1, 1023, 1024, 1025} {
			pos := make([]int32, m)
			for i := range pos {
				pos[i] = int32(r.Intn(n))
			}
			out := make([]int64, m)
			c.GatherInto(pos, out)
			for i, p := range pos {
				if want := c.Get(int(p)); out[i] != want {
					t.Fatalf("%s m=%d lane %d: got %d, want %d", c.Kind, m, i, out[i], want)
				}
			}
		}
	}
}

func TestRangeMatchesGet(t *testing.T) {
	for _, n := range []int{0, 1, 777} {
		for _, c := range kindColumns(n) {
			var lo, hi int64
			for i := 0; i < c.Len(); i++ {
				v := c.Get(i)
				if i == 0 || v < lo {
					lo = v
				}
				if i == 0 || v > hi {
					hi = v
				}
			}
			if gl, gh := c.Range(); gl != lo || gh != hi {
				t.Errorf("%s n=%d: Range()=(%d, %d), want (%d, %d)", c.Kind, n, gl, gh, lo, hi)
			}
		}
	}
}

// TestGatherSelIntoMatchesGet: a root column's selected rows of a tile, and a
// parent column's rows through lane-indexed positions, read as Get does.
func TestGatherSelIntoMatchesGet(t *testing.T) {
	const n = 3000
	r := rand.New(rand.NewSource(6))
	for _, c := range kindColumns(n) {
		for _, base := range []int{0, 1, 1975} {
			src, sel := make([]int32, 1024), make([]int32, 0, 1024)
			for l := range src {
				src[l] = int32(r.Intn(n))
				if base+l < n && r.Intn(3) > 0 {
					sel = append(sel, int32(l))
				}
			}
			root, edge := make([]int64, len(sel)), make([]int64, len(sel))
			c.GatherSelInto(base, nil, sel, root)
			c.GatherSelInto(0, src, sel, edge)
			for j, l := range sel {
				if root[j] != c.Get(base+int(l)) || edge[j] != c.Get(int(src[l])) {
					t.Fatalf("%s base %d lane %d: root %d, edge %d, want %d and %d", c.Kind, base, j, root[j], edge[j], c.Get(base+int(l)), c.Get(int(src[l])))
				}
			}
		}
	}
}
