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
	tab.ForEach(func(int64, int) { seen++ })
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

	var validKeys []int64
	tab.ForEach(func(k int64, _ int) { validKeys = append(validKeys, k) })
	if len(validKeys) != 1 || validKeys[0] != 2 {
		t.Errorf("valid groups = %v, want [2]", validKeys)
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

func TestAggTableMatchesMapReference(t *testing.T) {
	// Property: the table agrees with a map-based reference under random
	// inserts into a table that grows under them.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewAggTable(1, 4)
		ref := map[int64]int64{}
		for op := 0; op < 3000; op++ {
			k := int64(rng.Intn(200))
			v := int64(rng.Intn(100))
			ref[k] += v
			tab.Add(tab.Lookup(k), 0, v)
		}
		if tab.Len() != len(ref) {
			return false
		}
		got := map[int64]int64{}
		tab.ForEach(func(k int64, s int) { got[k] = tab.Acc(s, 0) })
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
		s.Add(int64(i * 3))
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
	if s.Add(3) {
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
	tab.ForEach(func(int64, int) { n++ })
	if n != 0 {
		t.Errorf("invalid group visible after Reset+masked add: %d groups", n)
	}
	tab.Add(s, 0, 5)
	if got := tab.Acc(s, 0); got != 5 {
		t.Errorf("Acc=%d after Reset+Add(5)", got)
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
		st.Add(k)
	}
	st.Reset()
	if st.Len() != 0 {
		t.Fatalf("SetTable Len=%d after Reset", st.Len())
	}
	if st.Contains(5) {
		t.Error("SetTable key survived Reset")
	}
	if !st.Add(5) {
		t.Error("reinsert after Reset reported duplicate")
	}

	allocs := testing.AllocsPerRun(100, func() {
		jt.Reset()
		st.Reset()
		for k := int64(0); k < 8; k++ {
			jt.Insert(k, int32(k))
			st.Add(k)
		}
	})
	if allocs != 0 {
		t.Errorf("join/set Reset+refill allocated %.1f times per run, want 0", allocs)
	}
}
