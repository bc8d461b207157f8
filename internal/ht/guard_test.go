package ht

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Hint clamping: every constructor and Reserve must survive zero and
// negative cardinality hints with the explicit minimum capacity, not
// whatever nextPow2 of a negative product happens to produce.

func TestAggTableHintClamp(t *testing.T) {
	for _, hint := range []int{math.MinInt, -5, -1, 0, 1} {
		tab := NewAggTable(1, hint)
		if tab.Cap() != 8 {
			t.Errorf("NewAggTable(1, %d): cap %d, want minimum 8", hint, tab.Cap())
		}
		for k := int64(0); k < 20; k++ {
			tab.Add(tab.Lookup(k), 0, k)
		}
		if tab.Len() != 20 {
			t.Errorf("NewAggTable(1, %d): %d groups after 20 inserts", hint, tab.Len())
		}
	}
	tab := NewAggTable(1, 1000)
	capBefore := tab.Cap()
	for _, hint := range []int{math.MinInt, -1, 0} {
		tab.Reserve(hint)
		if tab.Cap() != capBefore {
			t.Errorf("Reserve(%d) changed capacity %d -> %d", hint, capBefore, tab.Cap())
		}
	}
}

func TestJoinAndSetTableHintClamp(t *testing.T) {
	for _, hint := range []int{math.MinInt, -7, 0} {
		jt := NewJoinTable(hint)
		if jt.Cap() != 8 {
			t.Errorf("NewJoinTable(%d): cap %d, want 8", hint, jt.Cap())
		}
		for k := int64(0); k < 20; k++ {
			jt.Insert(k, int32(k))
		}
		if jt.Len() != 20 {
			t.Errorf("NewJoinTable(%d): %d keys after 20 inserts", hint, jt.Len())
		}
		jt.Reserve(hint)
		if row, ok := jt.Probe(7); !ok || row != 7 {
			t.Errorf("NewJoinTable(%d): Probe(7) = %d,%v after no-op Reserve", hint, row, ok)
		}

		st := NewSetTable(hint)
		for k := int64(0); k < 20; k++ {
			st.Insert(k)
		}
		st.Reserve(hint)
		if st.Len() != 20 || !st.Contains(19) {
			t.Errorf("NewSetTable(%d): len=%d Contains(19)=%v", hint, st.Len(), st.Contains(19))
		}
	}
}

// TestHintCapOverflow checks a hint near MaxInt cannot overflow the
// hint*2 sizing arithmetic into a negative or tiny capacity.
func TestHintCapOverflow(t *testing.T) {
	c := hintCap(math.MaxInt)
	if c != nextPow2(maxHint*2) {
		t.Errorf("hintCap(MaxInt) = %d, want clamp to %d", c, nextPow2(maxHint*2))
	}
	if c <= 0 {
		t.Fatalf("hintCap(MaxInt) overflowed to %d", c)
	}
}

// Epoch-wrap fallback: after ~4 billion Resets the 32-bit generation
// counter wraps and stale stamps could collide with the new generation;
// Reset falls back to a hard clear exactly once. The test hook jumps the
// counter to the edge so the wrap branch actually executes.

func TestAggTableEpochWrap(t *testing.T) {
	tab := NewAggTable(1, 16)
	for k := int64(0); k < 10; k++ {
		tab.Add(tab.Lookup(k), 0, k+1)
	}
	tab.setEpochForTest(math.MaxUint32)
	if tab.Len() != 10 {
		t.Fatalf("live groups lost by epoch hook: len=%d", tab.Len())
	}
	if tab.Find(3) < 0 {
		t.Fatal("key 3 not live at epoch MaxUint32")
	}

	tab.Reset() // cur wraps MaxUint32 -> 0, triggering the hard clear
	if got := tab.cur; got != 1 {
		t.Fatalf("after wrap Reset: cur=%d, want 1", got)
	}
	if tab.Len() != 0 {
		t.Fatalf("after wrap Reset: len=%d, want 0", tab.Len())
	}
	for k := int64(0); k < 10; k++ {
		if tab.Find(k) != -2 {
			t.Errorf("key %d survived the wrap Reset", k)
		}
	}
	// Stale stamps were cleared, so the epoch cannot collide: new inserts
	// land in fresh slots with zeroed accumulators.
	s := tab.Lookup(3)
	if got := tab.Acc(s, 0); got != 0 {
		t.Errorf("reclaimed slot carries stale accumulator %d", got)
	}
	tab.Add(s, 0, 42)
	if got := tab.Acc(tab.Find(3), 0); got != 42 {
		t.Errorf("post-wrap aggregate = %d, want 42", got)
	}
}

func TestJoinTableEpochWrap(t *testing.T) {
	jt := NewJoinTable(16)
	for k := int64(0); k < 10; k++ {
		jt.Insert(k, int32(k*10))
	}
	jt.setEpochForTest(math.MaxUint32)
	if row, ok := jt.Probe(4); !ok || row != 40 {
		t.Fatalf("Probe(4) = %d,%v at epoch MaxUint32", row, ok)
	}

	jt.Reset()
	if jt.cur != 1 {
		t.Fatalf("after wrap Reset: cur=%d, want 1", jt.cur)
	}
	if jt.Len() != 0 {
		t.Fatalf("after wrap Reset: len=%d, want 0", jt.Len())
	}
	for k := int64(0); k < 10; k++ {
		if _, ok := jt.Probe(k); ok {
			t.Errorf("key %d survived the wrap Reset", k)
		}
	}
	if !jt.Insert(4, 7) {
		t.Error("post-wrap Insert reported duplicate")
	}
	if row, ok := jt.Probe(4); !ok || row != 7 {
		t.Errorf("post-wrap Probe(4) = %d,%v, want 7,true", row, ok)
	}
}

// The key-masking fold checks the domain as an OR over the tile and panics
// after the loop: a key outside it still panics, naming the key, wherever it
// sits in the tile and whether its lane was selected or rejected — having
// folded only into the throwaway record, so every group but the one the
// other lanes reach stays clean. NullKey, rejected or not, folds into the
// throwaway record without a panic.
func TestKeyMaskedFoldRefusesOutsideKeys(t *testing.T) {
	forms := []struct {
		name   string
		packed bool
		vals   []int64
	}{{"int64 record", false, []int64{1, 1, 1, 1}}, {"count only", false, nil}, {"packed pair loop", true, []int64{1, 1, 1, 1}}}
	for _, form := range forms {
		for _, k := range []int64{-1, 10, math.MaxInt64, math.MinInt64 + 1, NullKey} {
			for _, at := range []int{0, 2, 3} { // first, inside and the tile's last lane
				for _, m := range []byte{0, 1} {
					tag := fmt.Sprintf("%s: key %d at lane %d, mask %d", form.name, k, at, m)
					tab := NewDenseAggTable(1, 0, 9, form.packed)
					keys, cmp := []int64{3, 3, 3, 3}, []byte{1, 1, 1, 1}
					keys[at], cmp[at] = k, m
					func() {
						defer func() {
							msg, _ := recover().(string)
							want := fmt.Sprintf("key %d outside the table's domain [0, 9]", k)
							if k == NullKey && msg != "" || k != NullKey && !strings.Contains(msg, want) {
								t.Errorf("%s: recovered %q", tag, msg)
							}
						}()
						tab.FoldTileKeyMasked(keys, make([]int32, len(keys)), 0, form.vals, cmp)
					}()
					for s := 0; s < tab.Cap(); s++ {
						if s != 3 && (tab.Acc(s, 0) != 0 || tab.Count(s) != 0) {
							t.Errorf("%s: slot %d written", tag, s)
						}
					}
					if tab.Count(3) != 3 || tab.Count(-1) != 1 {
						t.Errorf("%s: counts %d in key 3, %d in the throwaway record; want 3 and 1", tag, tab.Count(3), tab.Count(-1))
					}
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FoldTileKeyMasked on a hashed table did not panic")
			}
		}()
		NewAggTable(1, 8).FoldTileKeyMasked([]int64{3}, make([]int32, 1), 0, nil, []byte{1})
	}()
}
