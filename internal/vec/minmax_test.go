package vec

import (
	"testing"
	"testing/quick"
)

func TestMinMaxMaskedMatchReference(t *testing.T) {
	f := func(raw []int16, bits []byte) bool {
		if len(raw) == 0 {
			return true
		}
		cmp := make([]byte, len(raw))
		for i := range cmp {
			if i < len(bits) {
				cmp[i] = bits[i] & 1
			}
		}
		wantMin, wantMax := MinIdentity, MaxIdentity
		for i, v := range raw {
			if cmp[i] == 1 {
				if int64(v) < wantMin {
					wantMin = int64(v)
				}
				if int64(v) > wantMax {
					wantMax = int64(v)
				}
			}
		}
		return MinMasked(raw, cmp) == wantMin && MaxMasked(raw, cmp) == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxMaskedZeroValuesNotConfusedWithMask(t *testing.T) {
	// The whole point of the identity-element bookkeeping: a real value 0
	// must be able to win, and masked lanes must never win.
	vals := []int32{5, 0, -3, 7}
	cmp := []byte{1, 1, 0, 1}
	if got := MinMasked(vals, cmp); got != 0 {
		t.Errorf("min=%d, want 0 (masked -3 must not win)", got)
	}
	cmp = []byte{1, 0, 0, 1}
	if got := MinMasked(vals, cmp); got != 5 {
		t.Errorf("min=%d, want 5 (masked 0 must not win)", got)
	}
	if got := MaxMasked([]int32{-5, -1, 9}, []byte{1, 1, 0}); got != -1 {
		t.Errorf("max=%d, want -1 (masked 9 must not win)", got)
	}
}

func TestMinMaxEmptySelection(t *testing.T) {
	vals := []int32{1, 2, 3}
	cmp := []byte{0, 0, 0}
	if MinMasked(vals, cmp) != MinIdentity || MaxMasked(vals, cmp) != MaxIdentity {
		t.Error("empty selection must yield identities")
	}
}
