package ht

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAggTableBasic(t *testing.T) {
	tab := NewAggTable(2, 4)
	s := tab.Lookup(10)
	tab.Add(s, 0, 5)
	tab.Add(s, 1, 7)
	s = tab.Lookup(10)
	tab.Add(s, 0, 3)
	s = tab.Lookup(20)
	tab.Add(s, 0, 1)

	if tab.Len() != 2 {
		t.Fatalf("Len=%d, want 2", tab.Len())
	}
	if got := tab.Acc(tab.Find(10), 0); got != 8 {
		t.Errorf("acc0(10)=%d, want 8", got)
	}
	if got := tab.Acc(tab.Find(10), 1); got != 7 {
		t.Errorf("acc1(10)=%d, want 7", got)
	}
	if got := tab.Count(tab.Find(10)); got != 2 {
		t.Errorf("count(10)=%d, want 2", got)
	}
	if tab.Find(30) != -2 {
		t.Errorf("Find(30) should be absent")
	}
}

func TestAggTableThrowaway(t *testing.T) {
	tab := NewAggTable(1, 4)
	s := tab.Lookup(NullKey)
	if s != -1 {
		t.Fatalf("NullKey slot=%d, want -1", s)
	}
	tab.Add(s, 0, 99)
	tab.AddMasked(s, 0, 50, 1)
	tab.AddMasked(s, 0, 50, 0)
	if tab.Acc(-1, 0) != 149 || tab.Count(-1) != 2 {
		t.Errorf("throwaway=%d count=%d, want 149 and 2", tab.Acc(-1, 0), tab.Count(-1))
	}
	if tab.Len() != 0 {
		t.Errorf("throwaway must not count as a group")
	}
	seen := 0
	tab.ForEach(true, func(int64, int) { seen++ })
	if seen != 0 {
		t.Errorf("throwaway must not be visited")
	}
}

func TestAggTableValidityFlags(t *testing.T) {
	// Value masking: group 1 receives only masked (m=0) contributions, so
	// it must be excluded from the valid iteration even though its
	// aggregate is 0, while group 2's aggregate is legitimately 0.
	tab := NewAggTable(1, 4)
	s := tab.Lookup(1)
	tab.AddMasked(s, 0, 42, 0)
	s = tab.Lookup(2)
	tab.AddMasked(s, 0, 0, 1)

	var validKeys, allKeys []int64
	tab.ForEach(false, func(k int64, _ int) { validKeys = append(validKeys, k) })
	tab.ForEach(true, func(k int64, _ int) { allKeys = append(allKeys, k) })
	if len(validKeys) != 1 || validKeys[0] != 2 {
		t.Errorf("valid groups = %v, want [2]", validKeys)
	}
	if len(allKeys) != 2 {
		t.Errorf("all groups = %v, want 2 entries", allKeys)
	}
	if got := tab.Acc(tab.Find(1), 0); got != 0 {
		t.Errorf("masked contribution leaked: %d", got)
	}
}

func TestAggTableGrowPreservesAggregates(t *testing.T) {
	tab := NewAggTable(2, 2) // tiny, forces many grows
	const n = 10000
	for i := 0; i < n; i++ {
		k := int64(i % 500)
		s := tab.Lookup(k)
		tab.Add(s, 0, 1)
		tab.Add(s, 1, k)
	}
	if tab.Len() != 500 {
		t.Fatalf("Len=%d, want 500", tab.Len())
	}
	for k := int64(0); k < 500; k++ {
		s := tab.Find(k)
		if s < 0 {
			t.Fatalf("key %d lost during grow", k)
		}
		if tab.Acc(s, 0) != n/500 {
			t.Fatalf("key %d acc0=%d, want %d", k, tab.Acc(s, 0), n/500)
		}
		if tab.Acc(s, 1) != k*int64(n/500) {
			t.Fatalf("key %d acc1=%d", k, tab.Acc(s, 1))
		}
		if tab.Count(s) != n/500 {
			t.Fatalf("key %d count=%d", k, tab.Count(s))
		}
	}
}

func TestAggTableDelete(t *testing.T) {
	tab := NewAggTable(1, 8)
	for k := int64(0); k < 100; k++ {
		tab.Add(tab.Lookup(k), 0, k)
	}
	for k := int64(0); k < 100; k += 2 {
		if !tab.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if tab.Delete(0) {
		t.Error("double delete succeeded")
	}
	if tab.Delete(1000) {
		t.Error("deleting absent key succeeded")
	}
	if tab.Len() != 50 {
		t.Fatalf("Len=%d, want 50", tab.Len())
	}
	for k := int64(1); k < 100; k += 2 {
		s := tab.Find(k)
		if s < 0 {
			t.Fatalf("odd key %d lost after deletes (tombstone chain broken)", k)
		}
		if tab.Acc(s, 0) != k {
			t.Fatalf("odd key %d acc=%d", k, tab.Acc(s, 0))
		}
	}
	for k := int64(0); k < 100; k += 2 {
		if tab.Find(k) != -2 {
			t.Fatalf("deleted key %d still found", k)
		}
	}
}

func TestAggTableReinsertAfterDelete(t *testing.T) {
	// Insert-after-delete must not duplicate keys that sit past a
	// tombstone on the probe chain.
	tab := NewAggTable(1, 8)
	keys := []int64{3, 11, 19, 27, 35} // likely to share chains in a tiny table
	for _, k := range keys {
		tab.Add(tab.Lookup(k), 0, 1)
	}
	tab.Delete(3)
	// Re-lookup a still-present key: must find the original, not insert.
	before := tab.Len()
	s := tab.Lookup(35)
	if tab.Len() != before {
		t.Fatal("Lookup of existing key inserted a duplicate")
	}
	tab.Add(s, 0, 1)
	if got := tab.Acc(tab.Find(35), 0); got != 2 {
		t.Errorf("acc(35)=%d, want 2", got)
	}
	// Re-insert the deleted key; it may reuse the tombstone.
	tab.Add(tab.Lookup(3), 0, 7)
	if got := tab.Acc(tab.Find(3), 0); got != 7 {
		t.Errorf("acc(3)=%d, want 7", got)
	}
}

func TestAggTableMatchesMapReference(t *testing.T) {
	// Property: the table agrees with a map-based reference under random
	// interleaved inserts and deletes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewAggTable(1, 4)
		ref := map[int64]int64{}
		for op := 0; op < 3000; op++ {
			k := int64(rng.Intn(200))
			if rng.Intn(4) == 0 {
				delete(ref, k)
				tab.Delete(k)
			} else {
				v := int64(rng.Intn(100))
				ref[k] += v
				tab.Add(tab.Lookup(k), 0, v)
			}
		}
		if tab.Len() != len(ref) {
			return false
		}
		got := map[int64]int64{}
		tab.ForEach(true, func(k int64, s int) { got[k] = tab.Acc(s, 0) })
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestJoinTable(t *testing.T) {
	tab := NewJoinTable(4)
	for i := int32(0); i < 1000; i++ {
		if !tab.Insert(int64(i*7), i) {
			t.Fatalf("Insert(%d) reported duplicate", i*7)
		}
	}
	if tab.Insert(7, 999) {
		t.Error("duplicate insert reported new")
	}
	if tab.Len() != 1000 {
		t.Fatalf("Len=%d", tab.Len())
	}
	for i := int32(0); i < 1000; i++ {
		row, ok := tab.Probe(int64(i * 7))
		if !ok || row != i {
			t.Fatalf("Probe(%d) = %d,%v", i*7, row, ok)
		}
	}
	if _, ok := tab.Probe(3); ok {
		t.Error("Probe(3) should miss")
	}
}

func TestSetTable(t *testing.T) {
	s := NewSetTable(4)
	for i := 0; i < 500; i++ {
		s.Insert(int64(i * 3))
	}
	if s.Len() != 500 {
		t.Fatalf("Len=%d", s.Len())
	}
	for i := 0; i < 500; i++ {
		if !s.Contains(int64(i * 3)) {
			t.Fatalf("missing %d", i*3)
		}
	}
	if s.Contains(1) || s.Contains(1501) {
		t.Error("false positive")
	}
	if s.Insert(3) {
		t.Error("duplicate insert reported new")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 8, 1: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d)=%d, want %d", in, got, want)
		}
	}
}

func TestHash64Mixes(t *testing.T) {
	// Sanity: consecutive keys should not collide in the low bits.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1024; i++ {
		seen[hash64(i)&1023] = true
	}
	if len(seen) < 600 {
		t.Errorf("hash64 spreads %d/1024 buckets; too clustered", len(seen))
	}
}

func TestAggTableReset(t *testing.T) {
	tab := NewAggTable(2, 8)
	for k := int64(0); k < 10; k++ {
		s := tab.Lookup(k)
		tab.Add(s, 0, k*10)
		tab.Add(s, 1, k)
	}
	capBefore := tab.Cap()
	tab.Add(tab.Lookup(NullKey), 0, 7)

	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len=%d after Reset", tab.Len())
	}
	if tab.Cap() != capBefore {
		t.Errorf("Reset changed capacity %d -> %d", capBefore, tab.Cap())
	}
	if tab.Acc(-1, 0) != 0 || tab.Count(-1) != 0 {
		t.Error("Reset did not clear the throwaway record")
	}
	for k := int64(0); k < 10; k++ {
		if tab.Find(k) != -2 {
			t.Errorf("key %d survived Reset", k)
		}
	}
	// Reinsert a key that occupied a slot last generation: the slot's
	// stale accumulators, count, and validity must read as zero.
	s := tab.Lookup(3)
	if got := tab.Acc(s, 0); got != 0 {
		t.Errorf("stale accumulator visible after Reset: %d", got)
	}
	if got := tab.Count(s); got != 0 {
		t.Errorf("stale count visible after Reset: %d", got)
	}
	tab.AddMasked(s, 0, 99, 0) // masked add: must not validate the group
	n := 0
	tab.ForEach(false, func(int64, int) { n++ })
	if n != 0 {
		t.Errorf("invalid group visible after Reset+masked add: %d groups", n)
	}
	tab.Add(s, 0, 5)
	if got := tab.Acc(s, 0); got != 5 {
		t.Errorf("Acc=%d after Reset+Add(5)", got)
	}
}

func TestAggTableResetAfterDelete(t *testing.T) {
	tab := NewAggTable(1, 8)
	for k := int64(0); k < 6; k++ {
		tab.Add(tab.Lookup(k), 0, 1)
	}
	tab.Delete(2)
	tab.Delete(4)
	tab.Reset()
	// Tombstones must not leak into the new generation.
	for k := int64(0); k < 6; k++ {
		if tab.Find(k) != -2 {
			t.Errorf("key %d visible after Reset", k)
		}
	}
	for k := int64(0); k < 6; k++ {
		tab.Add(tab.Lookup(k), 0, int64(k))
	}
	if tab.Len() != 6 {
		t.Errorf("Len=%d after reinserting 6 keys", tab.Len())
	}
}

func TestAggTableResetZeroAlloc(t *testing.T) {
	tab := NewAggTable(1, 64)
	allocs := testing.AllocsPerRun(100, func() {
		tab.Reset()
		for k := int64(0); k < 64; k++ {
			tab.Add(tab.Lookup(k), 0, k)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset+refill allocated %.1f times per run, want 0", allocs)
	}
	if tab.Grows != 0 {
		t.Errorf("Grows=%d with sufficient capacity, want 0", tab.Grows)
	}
}

func TestAggTableReserveAndGrows(t *testing.T) {
	tab := NewAggTable(1, 4)
	tab.Add(tab.Lookup(1), 0, 10)
	tab.Reserve(1000)
	if tab.Cap() < 2000 {
		t.Errorf("Cap=%d after Reserve(1000)", tab.Cap())
	}
	if tab.Grows != 0 {
		t.Errorf("Reserve counted as a grow: %d", tab.Grows)
	}
	if got := tab.Acc(tab.Find(1), 0); got != 10 {
		t.Errorf("live group lost by Reserve: acc=%d", got)
	}
	for k := int64(0); k < 1000; k++ {
		tab.Add(tab.Lookup(k), 0, 1)
	}
	if tab.Grows != 0 {
		t.Errorf("grow fired despite Reserve(1000): Grows=%d", tab.Grows)
	}
	for k := int64(1000); k < 5000; k++ {
		tab.Add(tab.Lookup(k), 0, 1)
	}
	if tab.Grows == 0 {
		t.Error("Grows not counted past the reserved capacity")
	}
	if tab.Len() != 5000 {
		t.Errorf("Len=%d, want 5000", tab.Len())
	}
}

func TestJoinAndSetTableReset(t *testing.T) {
	jt := NewJoinTable(8)
	for k := int64(0); k < 8; k++ {
		jt.Insert(k, int32(k))
	}
	jt.Reset()
	if jt.Len() != 0 {
		t.Fatalf("JoinTable Len=%d after Reset", jt.Len())
	}
	if _, ok := jt.Probe(3); ok {
		t.Error("JoinTable key survived Reset")
	}
	if !jt.Insert(3, 33) {
		t.Error("reinsert after Reset reported duplicate")
	}
	if row, ok := jt.Probe(3); !ok || row != 33 {
		t.Errorf("Probe(3) = %d,%v after reinsert", row, ok)
	}

	st := NewSetTable(8)
	for k := int64(0); k < 8; k++ {
		st.Insert(k)
	}
	st.Reset()
	if st.Len() != 0 {
		t.Fatalf("SetTable Len=%d after Reset", st.Len())
	}
	if st.Contains(5) {
		t.Error("SetTable key survived Reset")
	}
	if !st.Insert(5) {
		t.Error("reinsert after Reset reported duplicate")
	}

	allocs := testing.AllocsPerRun(100, func() {
		jt.Reset()
		st.Reset()
		for k := int64(0); k < 8; k++ {
			jt.Insert(k, int32(k))
			st.Insert(k)
		}
	})
	if allocs != 0 {
		t.Errorf("join/set Reset+refill allocated %.1f times per run, want 0", allocs)
	}
}

func TestJoinAndSetTableReserve(t *testing.T) {
	jt := NewJoinTable(4)
	jt.Insert(7, 70)
	jt.Reserve(500)
	if row, ok := jt.Probe(7); !ok || row != 70 {
		t.Errorf("JoinTable lost key across Reserve: %d,%v", row, ok)
	}
	for k := int64(0); k < 500; k++ {
		jt.Insert(k, int32(k))
	}
	if jt.Grows != 0 {
		t.Errorf("JoinTable grew despite Reserve(500): %d", jt.Grows)
	}
	st := NewSetTable(4)
	st.Insert(7)
	st.Reserve(500)
	if !st.Contains(7) {
		t.Error("SetTable lost key across Reserve")
	}
	for k := int64(0); k < 500; k++ {
		st.Insert(k)
	}
	if st.Grows != 0 {
		t.Errorf("SetTable grew despite Reserve(500): %d", st.Grows)
	}
}
