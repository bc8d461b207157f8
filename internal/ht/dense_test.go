package ht

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// The key-addressed form, test for test what ht_test.go, lanes_test.go and
// pairs_test.go pin for the hashed form, plus the parity fuzzer that
// drives both with one tuple stream.

// foldKV folds (key, value) pairs into lane 0 and the count, under the mask
// cmp or, when cmp is nil, every lane: FoldSum1 on a one-lane key-addressed
// table, FoldTile on any other.
func foldKV(tab *AggTable, keys, vals []int64, cmp []byte) {
	if tab.span != 0 && tab.nAccs == 1 {
		FoldSum1(tab, keys, 0, vals, cmp, false)
		return
	}
	if cmp == nil {
		cmp = bytes.Repeat([]byte{1}, len(keys))
	}
	tab.FoldTile(keys, make([]int32, len(keys)), 0, vals, cmp)
}

func TestDenseBasic(t *testing.T) {
	tab := NewDenseAggTable(2, -5, 20, false)
	if tab.Cap() != 26 || len(tab.recs) != 27*3 {
		t.Fatalf("cap=%d words=%d, want 26 records of three words and the throwaway's", tab.Cap(), len(tab.recs))
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
	if tab.Find(0) != -2 || tab.Find(99) != -2 || tab.Find(NullKey) != -1 {
		t.Error("a key no tuple counted into reads as present")
	}
	if tab.Grows != 0 {
		t.Errorf("grows=%d on a key-addressed table", tab.Grows)
	}
}

func TestDenseThrowaway(t *testing.T) {
	tab := NewDenseAggTable(1, 0, 9, false)
	s := tab.Lookup(NullKey)
	if s != -1 {
		t.Fatalf("NullKey slot=%d, want -1", s)
	}
	tab.Add(s, 0, 99)
	tab.AddMasked(s, 0, 50, 1)
	tab.AddMasked(s, 0, 50, 0)
	FoldSum1(tab, []int64{NullKey, 3}, 0, []int64{1, 2}, nil, false)
	FoldSum1(tab, []int64{NullKey, NullKey}, 0, []int64{10, 20}, []byte{1, 0}, false)
	if tab.Acc(-1, 0) != 160 || tab.Count(-1) != 4 {
		t.Errorf("throwaway=%d count=%d, want 160 and 4", tab.Acc(-1, 0), tab.Count(-1))
	}
	if tab.Len() != 1 {
		t.Errorf("Len=%d: the throwaway must not count as a group", tab.Len())
	}
	tab.ForEach(func(k int64, _ int) {
		if k != 3 {
			t.Errorf("visited key %d", k)
		}
	})
}

// The throwaway record sits in the record array past the groups, and no
// walk, count or merge sees it: a table whose only tuples went there has no
// groups on any form, and a key-addressed merge leaves the destination's
// throwaway record as it was.
func TestThrowawayRecordStaysHidden(t *testing.T) {
	for name, mk := range map[string]func() *AggTable{
		"hashed":        func() *AggTable { return NewAggTable(1, 8) },
		"key-addressed": func() *AggTable { return NewDenseAggTable(1, 0, 9, false) },
		"packed":        func() *AggTable { return NewDenseAggTable(1, 0, 9, true) },
	} {
		tab := mk()
		capacity := tab.Cap()
		tab.Add(-1, 0, 5)
		foldKV(tab, []int64{NullKey, NullKey}, []int64{1, 2}, nil)
		slots := make([]int32, 3)
		tab.FoldTile([]int64{NullKey, NullKey, NullKey}, slots, 0, nil, []byte{1, 1, 0})
		if tab.span != 0 {
			tab.FoldTileKeyMasked([]int64{4, 5}, slots, 0, []int64{7, 7}, []byte{0, 0})
		}
		if tab.Count(-1) == 0 || slots[0] != int32(capacity) {
			t.Fatalf("%s: throwaway count %d, a NullKey lane's slot %d; want >0 and Cap() = %d", name, tab.Count(-1), slots[0], capacity)
		}
		tab.ForEach(func(k int64, s int) { t.Errorf("%s: ForEach visited key %d in slot %d", name, k, s) })
		if tab.Cap() != capacity || tab.Len() != 0 || tab.NextLive(0) != -1 || len(tab.AppendGroups(nil)) != 0 {
			t.Errorf("%s: Cap %d (was %d), Len %d, NextLive %d, AppendGroups %v", name, tab.Cap(), capacity,
				tab.Len(), tab.NextLive(0), tab.AppendGroups(nil))
		}
		if tab.span == 0 {
			continue
		}
		dst := mk()
		dst.Add(dst.Lookup(2), 0, 1)
		if merged := dst.MergeFrom(tab); merged != 0 || dst.Len() != 1 || dst.Count(-1) != 0 {
			t.Errorf("%s: merging a throwaway-only table merged %d groups, left %d and a throwaway count of %d", name, merged, dst.Len(), dst.Count(-1))
		}
	}
}

// A group only rejected tuples reached keeps a zero count and is never
// emitted, even though a real group's aggregate may legitimately be zero.
func TestDenseMaskedZeroCountNotEmitted(t *testing.T) {
	tab := NewDenseAggTable(1, 0, 9, false)
	tab.AddMasked(tab.Lookup(1), 0, 42, 0)
	tab.AddMasked(tab.Lookup(2), 0, 0, 1)
	FoldSum1(tab, []int64{5, 6}, 0, []int64{9, 0}, []byte{0, 1}, false)
	var keys []int64
	tab.ForEach(func(k int64, _ int) { keys = append(keys, k) })
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
	tab := NewDenseAggTable(1, -100, 100, false)
	for _, k := range []int64{40, -100, 7, 100, -3, 7} {
		tab.Add(tab.Lookup(k), 0, 1)
	}
	var got, walked []int64
	tab.ForEach(func(k int64, _ int) { got = append(got, k) })
	for s := tab.NextLive(0); s >= 0; s = tab.NextLive(s + 1) {
		walked = append(walked, tab.Key(s))
	}
	want := []int64{-100, -3, 7, 40, 100}
	if !slices.Equal(got, want) || !slices.Equal(walked, want) {
		t.Errorf("ForEach %v, NextLive %v, want %v", got, walked, want)
	}
}

func TestDenseResetReuse(t *testing.T) {
	tab := NewDenseAggTable(2, 0, 15, false)
	tab.SetIdentity(1, math.MaxInt64)
	for gen := int64(0); gen < 3; gen++ {
		tab.Reset()
		if tab.Len() != 0 || tab.Count(-1) != 0 {
			t.Fatalf("generation %d: %d groups, throwaway %d after Reset", gen, tab.Len(), tab.Count(-1))
		}
		slots := make([]int32, 3)
		cmp := []byte{1, 1, 1}
		tab.FoldTile([]int64{7, 9, NullKey}, slots, 0, []int64{gen, 2, 3}, cmp)
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
	a, b := NewDenseAggTable(1, 10, 19, false), NewDenseAggTable(1, 10, 19, false)
	FoldSum1(a, []int64{10, 12, 12, NullKey}, 0, []int64{1, 2, 3, 4}, nil, false)
	if a.Acc(-1, 0) != 4 || a.Count(-1) != 1 {
		t.Errorf("NullKey pair: throwaway (%d, %d), want (4, 1)", a.Acc(-1, 0), a.Count(-1))
	}
	FoldSum1(b, []int64{12, 19}, 0, []int64{10, 20}, nil, false)
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
}

// A key outside the domain is a plan run against data it was not compiled
// for: every entry point panics, naming the key, before anything is written.
func TestDenseOutOfRangePanics(t *testing.T) {
	entry := map[string]func(*AggTable, int64){
		"Lookup":     func(t *AggTable, k int64) { t.Lookup(k) },
		"LookupTile": func(t *AggTable, k int64) { t.LookupTile([]int64{3, k}, make([]int32, 2)) },
		"FoldSum1":   func(t *AggTable, k int64) { FoldSum1(t, []int64{3, k}, 0, []int64{1, 1}, nil, false) },
		"FoldSum1 masked": func(t *AggTable, k int64) {
			FoldSum1(t, []int64{3, k}, 0, []int64{1, 1}, []byte{1, 0}, false)
		},
		"FoldTile": func(t *AggTable, k int64) {
			t.FoldTile([]int64{3, k}, make([]int32, 2), 0, []int64{1, 1}, []byte{1, 0})
		},
		"FoldTile count": func(t *AggTable, k int64) {
			t.FoldTile([]int64{3, k}, make([]int32, 2), 0, nil, []byte{1, 1})
		},
	}
	for name, call := range entry {
		for i, k := range []int64{-1, 10, math.MaxInt64, math.MinInt64 + 1} {
			tab := NewDenseAggTable(1, 0, 9, i%2 == 1) // both record forms
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
			NewDenseAggTable(1, d[0], d[1], false)
		}()
	}
}

func TestFormBytes(t *testing.T) {
	// Every form counts its throwaway record.
	if got := DenseBytes(1, 1_000_000, false); got != 16_000_016 {
		t.Errorf("DenseBytes(1, 1M) = %d", got)
	}
	if got := DenseBytes(1, 1_000_000, true); got != 8_000_008 {
		t.Errorf("DenseBytes(1, 1M, packed) = %d", got)
	}
	if tab := NewDenseAggTable(1, 0, 999, true); tab.Cap() != 1000 || len(tab.recs) != 1001 || DenseBytes(1, 1000, true) != 8*1001 {
		t.Errorf("packed table: cap=%d words=%d, want 1000 and 1001", tab.Cap(), len(tab.recs))
	}
	tab := NewAggTable(1, 1000)
	got, want := HashedBytes(1, 1000), 2048*(8+4)+2049*16
	if got != want || got != 8*(len(tab.keys)+len(tab.recs))+4*len(tab.epoch) {
		t.Errorf("HashedBytes(1, 1000) = %d, want %d, the table's arrays", got, want)
	}
}

// The cost models' per-group size of a hashed table is the form rule's per-slot
// term: HashedBytes is HashedSlotBytes per slot plus the throwaway record, so
// the estimate and the rule price one slot alike.
func TestHashedSlotBytesIsHashedBytesSlot(t *testing.T) {
	for lanes := range 5 {
		for _, hint := range []int{1, 1000, 1 << 20} {
			slots := hintCap(hint)
			if got, want := HashedBytes(lanes, hint), slots*HashedSlotBytes(lanes)+8*(lanes+1); got != want {
				t.Errorf("lanes=%d hint=%d: HashedBytes %d, %d slots of HashedSlotBytes %d and the throwaway record make %d",
					lanes, hint, got, slots, HashedSlotBytes(lanes), want)
			}
		}
	}
}

// A packed table folds by addition only: a lane identity, a min or a max
// there is a caller bug and panics, as does packing more than one lane.
func TestPackedRefusesNonSums(t *testing.T) {
	slots, vals, cmp := []int32{0}, []int64{1}, []byte{1}
	for name, call := range map[string]func(*AggTable){
		"SetIdentity": func(t *AggTable) { t.SetIdentity(0, math.MaxInt64) },
		"MinTile":     func(t *AggTable) { t.MinTile(slots, 0, vals, cmp) },
		"MaxTile":     func(t *AggTable) { t.MaxTile(slots, 0, vals, cmp) },
		"two lanes":   func(*AggTable) { NewDenseAggTable(2, 0, 9, true) },
	} {
		tab := NewDenseAggTable(1, 0, 9, true)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a packed table did not panic", name)
				}
			}()
			call(tab)
		}()
		if tab.Len() != 0 || tab.Acc(0, 0) != 0 {
			t.Errorf("%s wrote before panicking", name)
		}
	}
}

// Both halves of the word at their limits: the largest count the low half
// holds and a sum at each end of int32 decode exactly.
func TestPackedWordLimits(t *testing.T) {
	tab := NewDenseAggTable(1, 0, 2, true)
	tab.recs[0] = math.MinInt32<<32 + math.MaxUint32
	tab.Add(1, 0, math.MaxInt32)
	tab.AddMasked(2, 0, math.MinInt32, 1)
	tab.AddMasked(2, 0, math.MaxInt32, 0)
	want := []int64{0, math.MinInt32, 1, math.MaxInt32, 2, math.MinInt32}
	if got := tab.AppendGroups(nil); !slices.Equal(got, want) {
		t.Errorf("AppendGroups = %v, want %v", got, want)
	}
	if tab.Count(0) != math.MaxUint32 || tab.Count(1) != 1 || tab.Count(2) != 1 {
		t.Errorf("counts %d %d %d", tab.Count(0), tab.Count(1), tab.Count(2))
	}
}

// stream decodes fuzz bytes into (key, value, mask) tuples over the domain
// [lo, lo+domain): four bytes a tuple, about one in four keys NullKey, int8
// values.
func stream(lo int64, domain int, data []byte) (keys, vals []int64, cmp []byte) {
	for ; len(data) >= 4; data = data[4:] {
		w := binary.LittleEndian.Uint32(data)
		k := lo + int64(w>>8)%int64(domain)
		if w&0xc0 == 0xc0 {
			k = NullKey
		}
		keys, vals, cmp = append(keys, k), append(vals, int64(int8(w>>16))), append(cmp, byte(w)&1)
	}
	return keys, vals, cmp
}

// formsAgree folds one (key, value, mask) stream into both forms through
// every entry point and compares what they hold: the same groups with the
// same sums and counts, the key-addressed walk ascending, and the same
// throwaway record.
func formsAgree(t *testing.T, domain int, data []byte) {
	t.Helper()
	lo := int64(-domain / 2)
	dense := NewDenseAggTable(2, lo, lo+int64(domain)-1, false)
	hashed := NewAggTable(2, 1) // grows under the stream
	for _, tab := range []*AggTable{dense, hashed} {
		tab.SetIdentity(1, math.MinInt64)
		tab.Reset()
	}
	keys, vals, cmp := stream(lo, domain, data)
	third := len(keys) / 3
	slots := make([]int32, third)
	for _, tab := range []*AggTable{dense, hashed} {
		// Tile lanes: count and sum into lane 0 in one pass, max into lane 1.
		tab.FoldTile(keys[:third], slots, 0, vals[:third], cmp[:third])
		tab.MaxTile(slots, 1, vals[:third], cmp[:third])
		// (key, value) pairs, masked then plain.
		foldKV(tab, keys[third:2*third], vals[third:2*third], cmp[third:2*third])
		foldKV(tab, keys[2*third:], vals[2*third:], nil)
	}
	type group struct{ key, sum, max, cnt int64 }
	collect := func(tab *AggTable) []group {
		var out []group
		tab.ForEach(func(k int64, s int) {
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
	if d, h := throwaway(dense), throwaway(hashed); !slices.Equal(d, h) {
		t.Fatalf("throwaway records disagree: %v vs %v", d, h)
	}
	var flat []int64
	for _, g := range d {
		flat = append(flat, g.key, g.sum)
	}
	if !slices.Equal(dense.AppendGroups(nil), flat) {
		t.Fatalf("AppendGroups is not the walk's (key, lane 0) pairs")
	}
}

// packedAgree is formsAgree's one-lane arm: the packed, the int64
// key-addressed and the hashed table fold one stream through every entry
// point and hold the same groups after each. The stream's values span all
// the packing proof admits — |v| ≤ (2^31-1)/n over n tuples, both signs — so
// no sum of any subset leaves int32. Only key-addressed tables merge: the
// hashed one folds the merged segment itself.
func packedAgree(t *testing.T, domain int, data []byte) {
	t.Helper()
	lo := int64(-domain / 2)
	hi := lo + int64(domain) - 1
	keys, vals, cmp := stream(lo, domain, data)
	n := len(keys)
	bound := int64(math.MaxInt32) / int64(max(n, 1))
	for i, v := range vals {
		switch v {
		case math.MaxInt8:
			vals[i] = bound
		case math.MinInt8:
			vals[i] = -bound
		default:
			vals[i] = v * (bound / 128)
		}
	}
	tabs := [3]*AggTable{NewDenseAggTable(1, lo, hi, true), NewDenseAggTable(1, lo, hi, false), NewAggTable(1, 1)}
	srcs := [3]*AggTable{NewDenseAggTable(1, lo, hi, true), NewDenseAggTable(1, lo, hi, false), NewAggTable(1, 1)}
	type group struct{ key, sum, cnt int64 }
	collect := func(tab *AggTable) []group {
		var out []group
		tab.ForEach(func(k int64, s int) { out = append(out, group{k, tab.Acc(s, 0), tab.Count(s)}) })
		return out
	}
	seg := func(i int) ([]int64, []int64, []byte) {
		a, b := i*n/6, (i+1)*n/6
		return keys[a:b], vals[a:b], cmp[a:b]
	}
	steps := []struct {
		name string
		fold func(tab, src *AggTable)
	}{
		{"FoldTile", func(tab, _ *AggTable) {
			k, v, m := seg(0)
			tab.FoldTile(k, make([]int32, len(k)), 0, v, m)
		}},
		{"pairs", func(tab, _ *AggTable) { k, v, _ := seg(1); foldKV(tab, k, v, nil) }},
		{"pairs masked", func(tab, _ *AggTable) { k, v, m := seg(2); foldKV(tab, k, v, m) }},
		{"FoldTile, SumTile", func(tab, _ *AggTable) {
			k, v, m := seg(3)
			slots := make([]int32, len(k))
			tab.FoldTile(k, slots, 0, nil, m)
			tab.SumTile(slots, 0, v, m)
		}},
		{"Add/AddMasked", func(tab, _ *AggTable) {
			k, v, m := seg(4)
			for i := range k {
				if i%2 == 0 {
					tab.Add(tab.Lookup(k[i]), 0, v[i])
				} else {
					tab.AddMasked(tab.Lookup(k[i]), 0, v[i], m[i])
				}
			}
		}},
		{"MergeFrom", func(tab, src *AggTable) {
			k, v, m := seg(5)
			if tab.span == 0 { // merged groups, not the source's throwaway record
				for i := range k {
					if k[i] != NullKey {
						tab.AddMasked(tab.Lookup(k[i]), 0, v[i], m[i])
					}
				}
				return
			}
			foldKV(src, k, v, m)
			tab.MergeFrom(src)
		}},
	}
	for _, st := range steps {
		for i, tab := range tabs {
			st.fold(tab, srcs[i])
		}
		p, d := collect(tabs[0]), collect(tabs[1])
		if !slices.IsSortedFunc(p, func(a, b group) int { return int(a.key - b.key) }) {
			t.Fatalf("after %s: packed walk out of key order", st.name)
		}
		if !slices.Equal(p, d) {
			t.Fatalf("after %s, the record forms disagree over domain %d:\n packed %v\n int64  %v", st.name, domain, p, d)
		}
		h := collect(tabs[2])
		slices.SortFunc(h, func(a, b group) int { return int(a.key - b.key) })
		if !slices.Equal(p, h) {
			t.Fatalf("after %s, the addressing forms disagree over domain %d:\n packed %v\n hashed %v", st.name, domain, p, h)
		}
		for i, tab := range tabs {
			if got, want := throwaway(tab), throwaway(tabs[2]); !slices.Equal(got, want) {
				t.Fatalf("after %s: table %d's throwaway record %v, hashed %v", st.name, i, got, want)
			}
		}
		// A hashed Len and Find also see groups only rejected tuples
		// reached; the key-addressed forms have none to see.
		if tabs[0].Len() != len(p) || tabs[1].Len() != len(p) {
			t.Fatalf("after %s: Len %d and %d, the walk %d groups", st.name, tabs[0].Len(), tabs[1].Len(), len(p))
		}
		for k := lo; k <= hi; k++ {
			if (tabs[0].Find(k) >= 0) != (tabs[1].Find(k) >= 0) {
				t.Fatalf("after %s: the record forms disagree on whether key %d is present", st.name, k)
			}
		}
		var flat []int64
		for _, g := range p {
			flat = append(flat, g.key, g.sum)
		}
		if !slices.Equal(tabs[0].AppendGroups(nil), flat) || !slices.Equal(tabs[1].AppendGroups(nil), flat) {
			t.Fatalf("after %s: AppendGroups is not the walk's (key, sum) pairs", st.name)
		}
	}
}

// refCount is the count pass FoldTile fuses: lane i's tuple counts into
// slots[i]'s group when cmp[i] is 1 (a packed word's low half).
func refCount(t *AggTable, slots []int32, cmp []byte) {
	n := t.stride
	for i, s := range slots {
		t.recs[int(s)*n+n-1] += int64(cmp[i])
	}
}

// throwaway reads the throwaway record through the public API: its count,
// then its lanes.
func throwaway(t *AggTable) []int64 {
	out := []int64{t.Count(-1)}
	for acc := range t.nAccs {
		out = append(out, t.Acc(-1, acc))
	}
	return out
}

// foldAgree is the fuzzer's FoldTile arm: on hashed, int64 key-addressed,
// packed and zero-lane tables, FoldTile and then the remaining lanes'
// SumTile hold what LookupTile, the reference count loop and every lane's
// SumTile hold — with the last lane's sum fused and with vals nil (the count
// alone), tile by tile, NullKey lanes and masks included. Wherever lanes
// fold after it, FoldTile's slots are LookupTile's.
func foldAgree(t *testing.T, domain int, data []byte) {
	t.Helper()
	lo := int64(-domain / 2)
	hi := lo + int64(domain) - 1
	keys, vals, cmp := stream(lo, domain, data) // int8 values: packed sums stay inside int32
	const tile = 100
	slots, ref := make([]int32, tile), make([]int32, tile)
	type group struct{ key, sum0, sum1, cnt int64 }
	collect := func(tab *AggTable) (out []group) {
		tab.ForEach(func(k int64, s int) {
			g := group{key: k, cnt: tab.Count(s)}
			if tab.nAccs > 0 {
				g.sum0 = tab.Acc(s, 0)
			}
			if tab.nAccs > 1 {
				g.sum1 = tab.Acc(s, 1)
			}
			out = append(out, g)
		})
		return out
	}
	for _, form := range []struct {
		name string
		make func() *AggTable
	}{
		{"hashed", func() *AggTable { return NewAggTable(2, 1) }},
		{"hashed, no lanes", func() *AggTable { return NewAggTable(0, 1) }},
		{"key-addressed", func() *AggTable { return NewDenseAggTable(2, lo, hi, false) }},
		{"key-addressed, one lane", func() *AggTable { return NewDenseAggTable(1, lo, hi, false) }},
		{"packed", func() *AggTable { return NewDenseAggTable(1, lo, hi, true) }},
		{"key-addressed, no lanes", func() *AggTable { return NewDenseAggTable(0, lo, hi, false) }},
	} {
		for _, fused := range []bool{true, false} {
			got, want := form.make(), form.make()
			if fused && got.nAccs == 0 {
				continue // no lane to fuse
			}
			for a := 0; a < len(keys); a += tile {
				b := min(a+tile, len(keys))
				k, v, m := keys[a:b], vals[a:b], cmp[a:b]
				var first []int64
				lane, rest := got.nAccs-1, 0 // the last lane fuses: lanes after it need not
				if fused {
					first, rest = v, 1
				}
				got.FoldTile(k, slots, max(lane, 0), first, m)
				for acc := range got.nAccs {
					if !fused || acc != lane {
						got.SumTile(slots[:len(k)], acc, v, m)
					}
				}
				want.LookupTile(k, ref)
				refCount(want, ref[:len(k)], m)
				for acc := 0; acc < want.nAccs; acc++ {
					want.SumTile(ref[:len(k)], acc, v, m)
				}
				if got.nAccs > rest && !slices.Equal(slots[:len(k)], ref[:len(k)]) {
					t.Fatalf("%s (fused %v): FoldTile's slots %v, LookupTile's %v", form.name, fused, slots[:len(k)], ref[:len(k)])
				}
			}
			if g, w := collect(got), collect(want); !slices.Equal(g, w) {
				t.Fatalf("%s (fused %v) over domain %d:\n FoldTile  %v\n reference %v", form.name, fused, domain, g, w)
			}
			if g, w := throwaway(got), throwaway(want); !slices.Equal(g, w) {
				t.Fatalf("%s (fused %v): throwaway %v, reference %v", form.name, fused, g, w)
			}
		}
	}
}

// keyMaskAgree is the fuzzer's key-masking arm: the same keys and mask fold
// into a key-addressed table by FoldTileKeyMasked, and into a hashed table
// as the paper writes key masking — keys masked to NullKey (vec.MaskKeysU),
// folded under an all-ones mask. The lanes after the first fold over the
// slots under the real mask on both. Groups, lanes and the throwaway record
// must agree, and FoldTileKeyMasked's slots are the key's offset where the
// mask is 1 and Cap() where it is 0. The stream's NullKey lanes are keys
// the domain refuses, which fold into the throwaway record like rejected ones.
func keyMaskAgree(t *testing.T, domain int, data []byte) {
	t.Helper()
	lo := int64(-domain / 2)
	hi := lo + int64(domain) - 1
	keys, vals, cmp := stream(lo, domain, data)
	const tile = 100
	slots, ref, masked, ones := make([]int32, tile), make([]int32, tile), make([]int64, tile), make([]byte, tile)
	vec.Fill(ones, 1)
	type group struct{ key, sum0, max1, cnt int64 }
	collect := func(tab *AggTable) (out []group) {
		tab.ForEach(func(k int64, s int) {
			g := group{key: k, cnt: tab.Count(s)}
			if tab.nAccs > 0 {
				g.sum0 = tab.Acc(s, 0)
			}
			if tab.nAccs > 1 {
				g.max1 = tab.Acc(s, 1)
			}
			out = append(out, g)
		})
		slices.SortFunc(out, func(a, b group) int { return int(a.key - b.key) })
		return out
	}
	for _, form := range []struct {
		name   string
		lanes  int
		packed bool
	}{{"key-addressed, sum and max", 2, false}, {"key-addressed, one lane", 1, false}, {"packed", 1, true}, {"key-addressed, no lanes", 0, false}} {
		for _, fused := range []bool{true, false} {
			if fused && form.lanes == 0 {
				continue
			}
			got, want := NewDenseAggTable(form.lanes, lo, hi, form.packed), NewAggTable(form.lanes, 1)
			if form.lanes > 1 {
				for _, tab := range []*AggTable{got, want} {
					tab.SetIdentity(1, math.MinInt64)
					tab.Reset()
				}
			}
			for a := 0; a < len(keys); a += tile {
				b := min(a+tile, len(keys))
				k, v, m := keys[a:b], vals[a:b], cmp[a:b]
				var first []int64
				if fused {
					first = v
				}
				got.FoldTileKeyMasked(k, slots, 0, first, m)
				vec.MaskKeysU(k, m, NullKey, masked)
				want.FoldTile(masked[:len(k)], ref, 0, first, ones[:len(k)])
				if !fused && form.lanes > 0 {
					got.SumTile(slots[:len(k)], 0, v, m)
					want.SumTile(ref[:len(k)], 0, v, m)
				}
				if form.lanes > 1 {
					got.MaxTile(slots[:len(k)], 1, v, m)
					want.MaxTile(ref[:len(k)], 1, v, m)
				}
				if form.packed && fused {
					continue // the pair loop leaves slots alone
				}
				for i, key := range k {
					s := int32(got.Cap())
					if m[i] == 1 && key != NullKey {
						s = int32(key - lo)
					}
					if slots[i] != s {
						t.Fatalf("%s (fused %v): lane %d (key %d, mask %d) slot %d, want %d", form.name, fused, i, key, m[i], slots[i], s)
					}
				}
			}
			if g, w := collect(got), collect(want); !slices.Equal(g, w) {
				t.Fatalf("%s (fused %v) over domain %d:\n key-masked fold %v\n masked keys     %v", form.name, fused, domain, g, w)
			}
			if g, w := throwaway(got), throwaway(want); !slices.Equal(g, w) {
				t.Fatalf("%s (fused %v): throwaway %v, masked keys' %v", form.name, fused, g, w)
			}
		}
	}
}

// A bare count(*) groups into a table with no lanes, whose throwaway record
// has no lane either: FoldTile counts NullKey lanes without touching one.
func TestFoldTileZeroLanes(t *testing.T) {
	for _, tab := range []*AggTable{NewAggTable(0, 1), NewDenseAggTable(0, 0, 9, false)} {
		keys := []int64{3, NullKey, 3, 9, NullKey, 3}
		tab.FoldTile(keys, make([]int32, len(keys)), 0, nil, []byte{1, 1, 0, 1, 0, 1})
		if c3, c9 := tab.Count(tab.Find(3)), tab.Count(tab.Find(9)); c3 != 2 || c9 != 1 || tab.Count(-1) != 1 {
			t.Errorf("span %d: counts %d and %d, throwaway %d; want 2, 1 and 1", tab.span, c3, c9, tab.Count(-1))
		}
	}
}

// FuzzAggTableForms is the parity fuzzer of the addressing and record
// forms: the committed seeds run under plain `go test`.
func FuzzAggTableForms(f *testing.F) {
	f.Add(uint16(1), []byte{})
	f.Add(uint16(3), []byte("aaaabbbbccccddddeeeeffffgggghhhh"))
	f.Add(uint16(100), []byte(strings.Repeat("\x01\x02\x03\x04\xc1\x05\x06\x07\x00\xff\x80\x10", 40)))
	f.Add(uint16(5000), []byte(strings.Repeat("swole pulls predicates up, not down. ", 300)))
	f.Fuzz(func(t *testing.T, domain uint16, data []byte) {
		formsAgree(t, int(domain)+1, data)
		packedAgree(t, int(domain)+1, data)
		foldAgree(t, int(domain)+1, data)
		keyMaskAgree(t, int(domain)+1, data)
	})
}

// TestFits pins the form check a re-prepared plan adopts a group table by:
// a key-addressed table fits only its own lanes, domain and packing; a hashed
// one its lanes and a hint whose starting capacity is at most its own and at
// least half of it.
func TestFits(t *testing.T) {
	dense := NewDenseAggTable(1, 10, 99, false)
	packed := NewDenseAggTable(1, 10, 99, true)
	hashed := NewAggTable(2, 1000) // capacity 2048
	for _, tc := range []struct {
		name   string
		tab    *AggTable
		nAccs  int
		lo, hi int64
		packed bool
		hint   int
		want   bool
	}{
		{"dense", dense, 1, 10, 99, false, 0, true},
		{"dense/lanes", dense, 2, 10, 99, false, 0, false},
		{"dense/lo", dense, 1, 9, 98, false, 0, false},
		{"dense/hi", dense, 1, 10, 100, false, 0, false},
		{"dense/packing", dense, 1, 10, 99, true, 0, false},
		{"packed", packed, 1, 10, 99, true, 0, true},
		{"packed/unpacked", packed, 1, 10, 99, false, 0, false},
		{"dense/hashed", dense, 1, 0, -1, false, 90, false},
		{"hashed", hashed, 2, 0, -1, false, 1000, true},
		{"hashed/grown", hashed, 2, 0, -1, false, 300, true}, // starts at 1024: one doubling short
		{"hashed/oversized", hashed, 2, 0, -1, false, 200, false},
		{"hashed/small", hashed, 2, 0, -1, false, 1100, false},
		{"hashed/lanes", hashed, 1, 0, -1, false, 1000, false},
		{"hashed/dense", hashed, 2, 0, 2047, false, 0, false},
	} {
		if got := tc.tab.Fits(tc.nAccs, tc.lo, tc.hi, tc.packed, tc.hint); got != tc.want {
			t.Errorf("%s: Fits = %v, want %v", tc.name, got, tc.want)
		}
	}
}
