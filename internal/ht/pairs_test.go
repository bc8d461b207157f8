package ht

import (
	"math/rand"
	"testing"
)

func TestNextLiveWalksForEachOrder(t *testing.T) {
	tab := NewAggTable(1, 64)
	for k := int64(0); k < 40; k++ {
		tab.Add(tab.Lookup(k*7), 0, k)
	}
	var want []int64
	tab.ForEach(func(key int64, slot int) { want = append(want, key) })
	var got []int64
	for s := tab.NextLive(0); s >= 0; s = tab.NextLive(s + 1) {
		got = append(got, tab.Key(s))
	}
	if len(got) != len(want) {
		t.Fatalf("NextLive visited %d groups, ForEach %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot order diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestMergeFromMatchesLookupAddMerge: a key-addressed merge, packed or not,
// equals folding the source's groups into the destination one Add at a time.
func TestMergeFromMatchesLookupAddMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, packed := range []bool{false, true} {
		for _, nsrc := range []int{0, 1, 5, 100, 5000} {
			src := NewDenseAggTable(1, -20, 6000, packed)
			ref := NewDenseAggTable(1, -20, 6000, packed)
			dst := NewDenseAggTable(1, -20, 6000, packed)
			// Seed both destinations with overlapping groups.
			for k := int64(0); k < 50; k++ {
				ref.Add(ref.Lookup(k), 0, k)
				dst.Add(dst.Lookup(k), 0, k)
			}
			for i := 0; i < nsrc; i++ {
				k := int64(rng.Intn(nsrc+10)) - 20
				src.Add(src.Lookup(k), 0, int64(rng.Intn(1000)-500))
			}
			src.ForEach(func(key int64, s int) {
				j := ref.Lookup(key)
				ref.Add(j, 0, src.Acc(s, 0))
				for c := src.Count(s); c > 1; c-- {
					ref.Add(j, 0, 0) // the rest of the source's count
				}
			})
			merged := dst.MergeFrom(src)
			if int(merged) != src.Len() {
				t.Fatalf("packed=%v nsrc=%d: merged %d groups, src has %d", packed, nsrc, merged, src.Len())
			}
			if dst.Len() != ref.Len() {
				t.Fatalf("packed=%v nsrc=%d: dst has %d groups, ref %d", packed, nsrc, dst.Len(), ref.Len())
			}
			ref.ForEach(func(key int64, s int) {
				j := dst.Find(key)
				if j < 0 {
					t.Fatalf("packed=%v nsrc=%d: key %d missing after MergeFrom", packed, nsrc, key)
				}
				if dst.Acc(j, 0) != ref.Acc(s, 0) || dst.Count(j) != ref.Count(s) {
					t.Fatalf("packed=%v nsrc=%d key %d: (%d, %d), want (%d, %d)", packed, nsrc, key,
						dst.Acc(j, 0), dst.Count(j), ref.Acc(s, 0), ref.Count(s))
				}
			})
		}
	}
}

func TestMergeFromSkipsInvalidGroups(t *testing.T) {
	// Value masking can create groups whose count never rose; the merge adds
	// nothing for them, so they stay out of the destination's emission.
	src := NewDenseAggTable(1, 0, 15, false)
	src.AddMasked(src.Lookup(1), 0, 10, 1)
	src.AddMasked(src.Lookup(2), 0, 99, 0) // masked-out: invalid group
	dst := NewDenseAggTable(1, 0, 15, false)
	if merged := dst.MergeFrom(src); merged != 1 {
		t.Fatalf("merged %d groups, want 1", merged)
	}
	if dst.Find(2) >= 0 {
		t.Error("invalid group leaked through MergeFrom")
	}
}

// TestMergeFromRefusesUnlikeTables: only key-addressed tables of one domain
// and record form merge; a hashed table, another domain or another record
// form is a caller bug.
func TestMergeFromRefusesUnlikeTables(t *testing.T) {
	dense := NewDenseAggTable(1, 0, 15, false)
	for name, src := range map[string]*AggTable{
		"hashed":       NewAggTable(1, 16),
		"other domain": NewDenseAggTable(1, 1, 16, false),
		"packed":       NewDenseAggTable(1, 0, 15, true),
		"two lanes":    NewDenseAggTable(2, 0, 15, false),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MergeFrom did not panic", name)
				}
			}()
			dense.MergeFrom(src)
		}()
	}
}
