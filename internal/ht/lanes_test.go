package ht

import (
	"math"
	"math/rand"
	"testing"
)

// laneRef is the scalar reference of the lane operations: one map entry per
// group, folded a tuple at a time.
type laneRef struct{ sum, cnt, mn, mx int64 }

func TestLaneOpsMatchScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, masked := range []bool{false, true} {
		// A hint of 1 forces growth inside tiles; LookupTile must re-resolve.
		tab := NewAggTable(3, 1)
		tab.SetIdentity(1, math.MaxInt64)
		tab.SetIdentity(2, math.MinInt64)
		ref := map[int64]*laneRef{}
		for _, n := range []int{0, 1, 1023, 1024, 1025} {
			keys := make([]int64, n)
			vals := make([]int64, n)
			cmp := make([]byte, n)
			slots := make([]int32, n)
			for i := range keys {
				keys[i] = r.Int63n(700) - 350
				vals[i] = r.Int63n(2001) - 1000
				cmp[i] = byte(r.Intn(2))
				if !masked && cmp[i] == 0 {
					keys[i] = NullKey // key masking: rejected lanes go to the throwaway
				}
			}
			tab.FoldTile(keys, slots, 0, vals, cmp)
			tab.MinTile(slots, 1, vals, cmp)
			tab.MaxTile(slots, 2, vals, cmp)
			for i, k := range keys {
				if k == NullKey {
					continue
				}
				g := ref[k]
				if g == nil {
					g = &laneRef{mn: math.MaxInt64, mx: math.MinInt64}
					ref[k] = g
				}
				if cmp[i] == 0 {
					continue
				}
				g.sum += vals[i]
				g.cnt++
				g.mn = min(g.mn, vals[i])
				g.mx = max(g.mx, vals[i])
			}
		}
		if tab.Grows == 0 {
			t.Fatal("table never grew: the mid-tile growth path is untested")
		}
		seen := 0
		tab.ForEach(true, func(key int64, slot int) {
			g := ref[key]
			if g == nil {
				t.Fatalf("masked=%t: unexpected group %d", masked, key)
			}
			seen++
			if tab.Acc(slot, 0) != g.sum || tab.Count(slot) != g.cnt {
				t.Errorf("masked=%t key %d: sum/count %d/%d, want %d/%d", masked, key, tab.Acc(slot, 0), tab.Count(slot), g.sum, g.cnt)
			}
			if tab.Acc(slot, 1) != g.mn || tab.Acc(slot, 2) != g.mx {
				t.Errorf("key %d: min/max %d/%d, want %d/%d", key, tab.Acc(slot, 1), tab.Acc(slot, 2), g.mn, g.mx)
			}
		})
		if seen != len(ref) {
			t.Errorf("masked=%t: %d groups, want %d", masked, seen, len(ref))
		}
	}
}

// A reclaimed slot must restart from the lane identities, not from zero or
// from what the previous generation left behind.
func TestSetIdentitySurvivesReset(t *testing.T) {
	tab := NewAggTable(1, 8)
	tab.SetIdentity(0, math.MaxInt64)
	for gen := 0; gen < 3; gen++ {
		slots := make([]int32, 2)
		tab.LookupTile([]int64{7, 9}, slots)
		tab.MinTile(slots, 0, []int64{int64(100 + gen), 5}, []byte{1, 1})
		if got := tab.Acc(tab.Find(7), 0); got != int64(100+gen) {
			t.Fatalf("generation %d: min %d, want %d", gen, got, 100+gen)
		}
		tab.Reset()
	}
}
