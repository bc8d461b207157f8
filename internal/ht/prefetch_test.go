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
	tab.ForEach(false, func(key int64, slot int) { want = append(want, key) })
	var got []int64
	for s := tab.NextLive(0, false); s >= 0; s = tab.NextLive(s+1, false) {
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

func TestMergeFromMatchesLookupAddMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, nsrc := range []int{0, 1, 5, 100, 5000} {
		src := NewAggTable(1, nsrc)
		ref := NewAggTable(1, 64)
		dst := NewAggTable(1, 64)
		// Seed both destinations with overlapping groups.
		for k := int64(0); k < 50; k++ {
			ref.Add(ref.Lookup(k), 0, k)
			dst.Add(dst.Lookup(k), 0, k)
		}
		for i := 0; i < nsrc; i++ {
			k := int64(rng.Intn(nsrc + 10))
			src.Add(src.Lookup(k), 0, int64(rng.Intn(1000)-500))
		}
		// Reference merge: the plain Lookup+Add loop the plans used to run.
		src.ForEach(false, func(key int64, s int) {
			ref.Add(ref.Lookup(key), 0, src.Acc(s, 0))
		})
		merged := dst.MergeFrom(src)
		if int(merged) != src.Len() {
			t.Fatalf("nsrc=%d: merged %d groups, src has %d", nsrc, merged, src.Len())
		}
		if dst.Len() != ref.Len() {
			t.Fatalf("nsrc=%d: dst has %d groups, ref %d", nsrc, dst.Len(), ref.Len())
		}
		ref.ForEach(false, func(key int64, s int) {
			j := dst.Find(key)
			if j < 0 {
				t.Fatalf("nsrc=%d: key %d missing after MergeFrom", nsrc, key)
			}
			if dst.Acc(j, 0) != ref.Acc(s, 0) {
				t.Fatalf("nsrc=%d key %d: acc %d, want %d", nsrc, key, dst.Acc(j, 0), ref.Acc(s, 0))
			}
			if dst.Count(j) != ref.Count(s) {
				t.Fatalf("nsrc=%d key %d: count %d, want %d", nsrc, key, dst.Count(j), ref.Count(s))
			}
		})
	}
}

func TestMergeFromSkipsInvalidGroups(t *testing.T) {
	// Value masking can create groups whose validity flag never set; the
	// merge must skip them exactly as ForEach(false) does.
	src := NewAggTable(1, 16)
	src.AddMasked(src.Lookup(1), 0, 10, 1)
	src.AddMasked(src.Lookup(2), 0, 99, 0) // masked-out: invalid group
	dst := NewAggTable(1, 16)
	if merged := dst.MergeFrom(src); merged != 1 {
		t.Fatalf("merged %d groups, want 1", merged)
	}
	if dst.Find(2) >= 0 {
		t.Error("invalid group leaked through MergeFrom")
	}
}

func TestTouchReturnsWithoutMutating(t *testing.T) {
	tab := NewAggTable(1, 16)
	tab.Add(tab.Lookup(7), 0, 3)
	probes := tab.Probes
	var sink uint64
	sink += tab.Touch(7)
	sink += tab.Touch(NullKey)
	if tab.Probes != probes {
		t.Error("Touch must not count probes")
	}
	if tab.Len() != 1 || tab.Acc(tab.Find(7), 0) != 3 {
		t.Errorf("Touch mutated the table (sink=%d)", sink)
	}

	jt := NewJoinTable(16)
	jt.Insert(5, 1)
	_ = jt.Touch(5)
	if r, ok := jt.Probe(5); !ok || r != 1 {
		t.Error("JoinTable.Touch mutated the table")
	}

	pt := NewPartitionedJoinTable(4, 16)
	pt.Insert(5, 2)
	_ = pt.Touch(5)
	if r, ok := pt.Probe(5); !ok || r != 2 {
		t.Error("PartitionedJoinTable.Touch mutated the table")
	}
}
