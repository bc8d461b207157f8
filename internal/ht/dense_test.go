package ht

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
)

// The key-addressed form, test for test what ht_test.go, lanes_test.go and
// prefetch_test.go pin for the hashed form, plus the parity fuzzer that
// drives both with one tuple stream.

func TestDenseBasic(t *testing.T) {
	tab := NewDenseAggTable(2, -5, 20)
	if tab.Cap() != 26 || tab.SlotBytes() != 24 {
		t.Fatalf("cap=%d slot=%dB, want 26 and 24", tab.Cap(), tab.SlotBytes())
	}
	s := tab.Lookup(-5)
	tab.Add(s, 0, 5)
	tab.Add(s, 1, 50)
	s = tab.Lookup(20)
	tab.Add(s, 0, 7)
	s = tab.Lookup(-5)
	tab.Add(s, 0, 3)
	if tab.Len() != 2 {
		t.Fatalf("Len=%d, want 2", tab.Len())
	}
	if f := tab.Find(-5); f != 0 || tab.Acc(f, 0) != 8 || tab.Acc(f, 1) != 50 || tab.Count(f) != 2 {
		t.Errorf("key -5: slot %d acc0=%d acc1=%d count=%d", f, tab.Acc(f, 0), tab.Acc(f, 1), tab.Count(f))
	}
	if tab.Key(tab.Find(20)) != 20 {
		t.Errorf("Key(Find(20)) = %d", tab.Key(tab.Find(20)))
	}
	if tab.Find(0) != -2 || tab.Contains(0) || tab.Find(99) != -2 || tab.Contains(99) {
		t.Error("a key no tuple counted into reads as present")
	}
	if !tab.Contains(20) || tab.Contains(NullKey) {
		t.Error("Contains disagrees with Find")
	}
	if tab.Grows != 0 || tab.Probes != 0 {
		t.Errorf("grows=%d probes=%d on a key-addressed table", tab.Grows, tab.Probes)
	}
}

func TestDenseThrowaway(t *testing.T) {
	tab := NewDenseAggTable(1, 0, 9)
	s := tab.Lookup(NullKey)
	if s != -1 {
		t.Fatalf("NullKey slot=%d, want -1", s)
	}
	tab.Add(s, 0, 99)
	tab.AddMasked(s, 0, 50, 1)
	tab.AddMasked(s, 0, 50, 0)
	tab.AddPairs([]int64{NullKey, 3}, []int64{1, 2})
	tab.AddPairsMasked([]int64{NullKey, NullKey}, []int64{10, 20}, []byte{1, 0})
	if tab.Throwaway[0] != 160 || tab.ThrowawayCount != 4 {
		t.Errorf("throwaway=%d count=%d, want 160 and 4", tab.Throwaway[0], tab.ThrowawayCount)
	}
	if tab.Len() != 1 {
		t.Errorf("Len=%d: the throwaway must not count as a group", tab.Len())
	}
	tab.ForEach(true, func(k int64, _ int) {
		if k != 3 {
			t.Errorf("visited key %d", k)
		}
	})
}

// A group only rejected tuples reached keeps a zero count and is never
// emitted, even though a real group's aggregate may legitimately be zero.
func TestDenseMaskedZeroCountNotEmitted(t *testing.T) {
	tab := NewDenseAggTable(1, 0, 9)
	tab.AddMasked(tab.Lookup(1), 0, 42, 0)
	tab.AddMasked(tab.Lookup(2), 0, 0, 1)
	tab.AddPairsMasked([]int64{5, 6}, []int64{9, 0}, []byte{0, 1})
	var keys []int64
	tab.ForEach(false, func(k int64, _ int) { keys = append(keys, k) })
	if !slices.Equal(keys, []int64{2, 6}) {
		t.Errorf("emitted %v, want [2 6]", keys)
	}
	if got := tab.AppendGroups(nil); !slices.Equal(got, []int64{2, 0, 6, 0}) {
		t.Errorf("AppendGroups = %v", got)
	}
	if tab.Acc(1, 0) != 0 {
		t.Errorf("masked contribution leaked: %d", tab.Acc(1, 0))
	}
}

func TestDenseForEachAscending(t *testing.T) {
	tab := NewDenseAggTable(1, -100, 100)
	for _, k := range []int64{40, -100, 7, 100, -3, 7} {
		tab.Add(tab.Lookup(k), 0, 1)
	}
	var got, walked []int64
	tab.ForEach(false, func(k int64, _ int) { got = append(got, k) })
	for s := tab.NextLive(0, false); s >= 0; s = tab.NextLive(s+1, false) {
		walked = append(walked, tab.Key(s))
	}
	want := []int64{-100, -3, 7, 40, 100}
	if !slices.Equal(got, want) || !slices.Equal(walked, want) {
		t.Errorf("ForEach %v, NextLive %v, want %v", got, walked, want)
	}
}

func TestDenseDelete(t *testing.T) {
	tab := NewDenseAggTable(1, 0, 99)
	tab.SetIdentity(0, 1000)
	tab.Reset()
	for k := int64(0); k < 100; k++ {
		tab.Add(tab.Lookup(k), 0, k)
	}
	for k := int64(0); k < 100; k += 2 {
		if !tab.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if tab.Delete(0) || tab.Delete(1000) || tab.Delete(NullKey) {
		t.Error("deleting an absent key succeeded")
	}
	if tab.Len() != 50 {
		t.Fatalf("Len=%d, want 50", tab.Len())
	}
	for k := int64(0); k < 100; k++ {
		if odd := k%2 == 1; tab.Contains(k) != odd {
			t.Fatalf("key %d present=%v", k, !odd)
		}
	}
	// A deleted group restarts from the identity, like a new one.
	tab.Add(tab.Lookup(4), 0, 1)
	if got := tab.Acc(tab.Find(4), 0); got != 1001 {
		t.Errorf("re-added key: acc %d, want 1001", got)
	}
}

func TestDenseResetReuse(t *testing.T) {
	tab := NewDenseAggTable(2, 0, 15)
	tab.SetIdentity(1, math.MaxInt64)
	for gen := int64(0); gen < 3; gen++ {
		tab.Reset()
		if tab.Len() != 0 || tab.ThrowawayCount != 0 {
			t.Fatalf("generation %d: %d groups, throwaway %d after Reset", gen, tab.Len(), tab.ThrowawayCount)
		}
		slots := make([]int32, 3)
		tab.LookupTile([]int64{7, 9, NullKey}, slots)
		cmp := []byte{1, 1, 1}
		tab.CountTile(slots, cmp)
		tab.SumTile(slots, 0, []int64{gen, 2, 3}, cmp)
		tab.MinTile(slots, 1, []int64{100 + gen, 5, 1}, cmp)
		if got := tab.Acc(tab.Find(7), 0); got != gen {
			t.Fatalf("generation %d: stale sum %d", gen, got)
		}
		if got := tab.Acc(tab.Find(7), 1); got != 100+gen {
			t.Fatalf("generation %d: min %d, want %d (identity lost)", gen, got, 100+gen)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		tab.Reset()
		for k := int64(0); k < 16; k++ {
			tab.Add(tab.Lookup(k), 0, k)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset+refill allocated %.1f times per run, want 0", allocs)
	}
}

func TestDenseFoldPairsAndMerge(t *testing.T) {
	a, b := NewDenseAggTable(1, 10, 19), NewDenseAggTable(1, 10, 19)
	if n := a.FoldPairs([]int64{10, 12, 12, NullKey}, []int64{1, 2, 3, 4}); n != 0 {
		t.Errorf("FoldPairs used the lookahead on a key-addressed table: %d", n)
	}
	b.AddPairs([]int64{12, 19}, []int64{10, 20})
	b.AddMasked(b.Lookup(15), 0, 99, 0) // reached, never counted
	if merged := a.MergeFrom(b); merged != 2 {
		t.Errorf("merged %d groups, want 2", merged)
	}
	if got := a.AppendGroups(nil); !slices.Equal(got, []int64{10, 1, 12, 15, 19, 20}) {
		t.Errorf("merged groups %v", got)
	}
	if a.Count(a.Find(12)) != 3 {
		t.Errorf("count(12)=%d, want 3", a.Count(a.Find(12)))
	}
	// A hashed destination takes a key-addressed source through the probe.
	h := NewAggTable(1, 4)
	h.Add(h.Lookup(12), 0, 100)
	if merged := h.MergeFrom(b); merged != 2 {
		t.Errorf("hashed <- dense merged %d groups, want 2", merged)
	}
	if h.Acc(h.Find(12), 0) != 110 || h.Acc(h.Find(19), 0) != 20 || h.Find(15) >= 0 {
		t.Error("hashed <- dense merge lost or invented a group")
	}
}

// A key outside the domain is a plan run against data it was not compiled
// for: every entry point panics, naming the key, before anything is written.
func TestDenseOutOfRangePanics(t *testing.T) {
	entry := map[string]func(*AggTable, int64){
		"Lookup":     func(t *AggTable, k int64) { t.Lookup(k) },
		"LookupTile": func(t *AggTable, k int64) { t.LookupTile([]int64{3, k}, make([]int32, 2)) },
		"AddPairs":   func(t *AggTable, k int64) { t.AddPairs([]int64{3, k}, []int64{1, 1}) },
		"AddPairsMasked": func(t *AggTable, k int64) {
			t.AddPairsMasked([]int64{3, k}, []int64{1, 1}, []byte{1, 0})
		},
		"FoldPairs": func(t *AggTable, k int64) { t.FoldPairs([]int64{k}, []int64{1}) },
	}
	for name, call := range entry {
		for _, k := range []int64{-1, 10, math.MaxInt64, math.MinInt64 + 1} {
			tab := NewDenseAggTable(1, 0, 9)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "outside the table's domain [0, 9]") {
						t.Errorf("%s(%d): recovered %q, want the out-of-domain panic", name, k, msg)
					}
				}()
				call(tab, k)
			}()
			for s := 0; s < tab.Cap(); s++ {
				if s != 3 && (tab.Acc(s, 0) != 0 || tab.Count(s) != 0) {
					t.Errorf("%s(%d): slot %d written", name, k, s)
				}
			}
		}
	}
	for _, d := range [][2]int64{{5, 4}, {NullKey, 0}, {0, MaxDenseDomain}, {math.MinInt64 + 1, math.MaxInt64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDenseAggTable over [%d, %d] did not panic", d[0], d[1])
				}
			}()
			NewDenseAggTable(1, d[0], d[1])
		}()
	}
}

func TestFormBytes(t *testing.T) {
	if got := DenseBytes(1, 1_000_000); got != 16_000_000 {
		t.Errorf("DenseBytes(1, 1M) = %d", got)
	}
	if got, want := HashedBytes(1, 1000), 2048*(8+1+4+16); got != want {
		t.Errorf("HashedBytes(1, 1000) = %d, want %d", got, want)
	}
}

// formsAgree folds one (key, value, mask) stream into both forms through
// every entry point and compares what they hold: the same groups with the
// same sums and counts, the key-addressed walk ascending, and the same
// throwaway entry.
func formsAgree(t *testing.T, domain int, data []byte) {
	t.Helper()
	lo := int64(-domain / 2)
	dense := NewDenseAggTable(2, lo, lo+int64(domain)-1)
	hashed := NewAggTable(2, 1) // grows under the stream
	for _, tab := range []*AggTable{dense, hashed} {
		tab.SetIdentity(1, math.MinInt64)
		tab.Reset()
	}
	var keys, vals []int64
	var cmp []byte
	for ; len(data) >= 4; data = data[4:] {
		w := binary.LittleEndian.Uint32(data)
		k := lo + int64(w>>8)%int64(domain)
		if w&0xc0 == 0xc0 {
			k = NullKey
		}
		keys, vals, cmp = append(keys, k), append(vals, int64(int8(w>>16))), append(cmp, byte(w)&1)
	}
	third := len(keys) / 3
	slots := make([]int32, third)
	for _, tab := range []*AggTable{dense, hashed} {
		// Tile lanes: count, sum into lane 0, max into lane 1.
		tab.LookupTile(keys[:third], slots)
		tab.CountTile(slots, cmp[:third])
		tab.SumTile(slots, 0, vals[:third], cmp[:third])
		tab.MaxTile(slots, 1, vals[:third], cmp[:third])
		// Fused pair folds, masked then plain.
		tab.AddPairsMasked(keys[third:2*third], vals[third:2*third], cmp[third:2*third])
		tab.FoldPairs(keys[2*third:], vals[2*third:])
		// Eager aggregation: delete every seventh key of the domain.
		for k := lo; k < lo+int64(domain); k += 7 {
			tab.Delete(k)
		}
	}
	type group struct{ key, sum, max, cnt int64 }
	collect := func(tab *AggTable) []group {
		var out []group
		tab.ForEach(false, func(k int64, s int) {
			out = append(out, group{k, tab.Acc(s, 0), tab.Acc(s, 1), tab.Count(s)})
		})
		return out
	}
	d, h := collect(dense), collect(hashed)
	if !slices.IsSortedFunc(d, func(a, b group) int { return int(a.key - b.key) }) {
		t.Fatalf("key-addressed walk out of key order: %v", d)
	}
	slices.SortFunc(h, func(a, b group) int { return int(a.key - b.key) })
	if !slices.Equal(d, h) {
		t.Fatalf("forms disagree over domain %d:\n dense  %v\n hashed %v", domain, d, h)
	}
	if !slices.Equal(dense.Throwaway, hashed.Throwaway) || dense.ThrowawayCount != hashed.ThrowawayCount {
		t.Fatalf("throwaway entries disagree: %v/%d vs %v/%d",
			dense.Throwaway, dense.ThrowawayCount, hashed.Throwaway, hashed.ThrowawayCount)
	}
	var flat []int64
	for _, g := range d {
		flat = append(flat, g.key, g.sum)
	}
	if !slices.Equal(dense.AppendGroups(nil), flat) {
		t.Fatalf("AppendGroups is not the walk's (key, lane 0) pairs")
	}
}

// FuzzAggTableForms is the parity fuzzer of the two addressing forms: the
// committed seeds run under plain `go test`.
func FuzzAggTableForms(f *testing.F) {
	f.Add(uint16(1), []byte{})
	f.Add(uint16(3), []byte("aaaabbbbccccddddeeeeffffgggghhhh"))
	f.Add(uint16(100), []byte(strings.Repeat("\x01\x02\x03\x04\xc1\x05\x06\x07\x00\xff\x80\x10", 40)))
	f.Add(uint16(5000), []byte(strings.Repeat("swole pulls predicates up, not down. ", 300)))
	f.Fuzz(func(t *testing.T, domain uint16, data []byte) {
		formsAgree(t, int(domain)+1, data)
	})
}
