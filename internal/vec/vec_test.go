package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTiles(t *testing.T) {
	cases := []struct {
		n     int
		bases []int
		lens  []int
	}{
		{0, nil, nil},
		{1, []int{0}, []int{1}},
		{TileSize, []int{0}, []int{TileSize}},
		{TileSize + 1, []int{0, TileSize}, []int{TileSize, 1}},
		{3 * TileSize, []int{0, TileSize, 2 * TileSize}, []int{TileSize, TileSize, TileSize}},
	}
	for _, c := range cases {
		var bases, lens []int
		Tiles(c.n, func(b, l int) {
			bases = append(bases, b)
			lens = append(lens, l)
		})
		if len(bases) != len(c.bases) {
			t.Fatalf("n=%d: got %d tiles, want %d", c.n, len(bases), len(c.bases))
		}
		total := 0
		for i := range bases {
			if bases[i] != c.bases[i] || lens[i] != c.lens[i] {
				t.Errorf("n=%d tile %d: got (%d,%d), want (%d,%d)", c.n, i, bases[i], lens[i], c.bases[i], c.lens[i])
			}
			total += lens[i]
		}
		if total != c.n {
			t.Errorf("n=%d: tiles cover %d tuples", c.n, total)
		}
	}
}

func refCmp(op CmpOp, a, b int64) byte {
	var ok bool
	switch op {
	case LT:
		ok = a < b
	case LE:
		ok = a <= b
	case GT:
		ok = a > b
	case GE:
		ok = a >= b
	case EQ:
		ok = a == b
	case NE:
		ok = a != b
	}
	if ok {
		return 1
	}
	return 0
}

func TestCmpConstAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int32, 777)
	for i := range vals {
		vals[i] = int32(rng.Intn(100))
	}
	out := make([]byte, len(vals))
	for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
		CmpConst(op, vals, 50, out)
		for i := range vals {
			if want := refCmp(op, int64(vals[i]), 50); out[i] != want {
				t.Fatalf("op %v lane %d val %d: got %d, want %d", op, i, vals[i], out[i], want)
			}
		}
	}
}

func TestCmpConstTypes(t *testing.T) {
	// Exercise each physical width the storage layer produces.
	out := make([]byte, 4)
	CmpConstLT([]int8{-5, 0, 5, 13}, int8(5), out)
	if out[0] != 1 || out[1] != 1 || out[2] != 0 || out[3] != 0 {
		t.Errorf("int8: %v", out)
	}
	CmpConstGE([]int16{-5, 0, 5, 13}, int16(5), out)
	if out[0] != 0 || out[1] != 0 || out[2] != 1 || out[3] != 1 {
		t.Errorf("int16: %v", out)
	}
	CmpConstEQ([]int64{1, 2, 3, 2}, int64(2), out)
	if out[0] != 0 || out[1] != 1 || out[2] != 0 || out[3] != 1 {
		t.Errorf("int64: %v", out)
	}
}

func TestCmpConstBetween(t *testing.T) {
	vals := []int32{0, 5, 10, 15, 20}
	out := make([]byte, len(vals))
	CmpConstBetween(vals, 5, 15, out)
	want := []byte{0, 1, 1, 1, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("lane %d: got %d, want %d", i, out[i], want[i])
		}
	}
}

func TestCmpCols(t *testing.T) {
	a := []int32{1, 2, 3, 4}
	b := []int32{2, 2, 2, 2}
	out := make([]byte, 4)
	for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
		CmpCols(op, a, b, out)
		for i := range a {
			if want := refCmp(op, int64(a[i]), int64(b[i])); out[i] != want {
				t.Fatalf("op %v lane %d: got %d, want %d", op, i, out[i], want)
			}
		}
	}
}

func TestBooleanCombinators(t *testing.T) {
	dst := []byte{0, 0, 1, 1}
	src := []byte{0, 1, 0, 1}
	And(dst, src)
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 0 || dst[3] != 1 {
		t.Errorf("And: %v", dst)
	}
	dst = []byte{0, 0, 1, 1}
	Or(dst, src)
	if dst[0] != 0 || dst[1] != 1 || dst[2] != 1 || dst[3] != 1 {
		t.Errorf("Or: %v", dst)
	}
	Not(dst)
	if dst[0] != 1 || dst[1] != 0 || dst[2] != 0 || dst[3] != 0 {
		t.Errorf("Not: %v", dst)
	}
	Fill(dst, 1)
	if CountOnes(dst) != 4 {
		t.Errorf("Fill/CountOnes: %v", dst)
	}
}

func TestSelVariantsAgree(t *testing.T) {
	// Property: the eight-lane and no-branch selection produce identical vectors.
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		cmp := make([]byte, len(raw))
		for i, v := range raw {
			cmp[i] = v & 1
		}
		a := make([]int32, len(cmp))
		b := make([]int32, len(cmp))
		na := SelFromCmpNoBranch(cmp, a)
		nb, _ := SelFromCmpAdaptive(cmp, b)
		if na != nb || na != CountOnes(cmp) {
			return false
		}
		for i := 0; i < na; i++ {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSelFromCmpOffset(t *testing.T) {
	cmp := []byte{1, 0, 1, 1, 0, 1}
	sel := make([]int32, 3)
	fill, consumed := SelFromCmpOffset(cmp, 100, sel, 0)
	if fill != 3 || consumed != 4 {
		t.Fatalf("fill=%d consumed=%d, want 3,4", fill, consumed)
	}
	if sel[0] != 100 || sel[1] != 102 || sel[2] != 103 {
		t.Errorf("sel=%v", sel)
	}
	// Resume from where we left off: lanes 4 (zero) and 5 (set) remain.
	fill, consumed = SelFromCmpOffset(cmp[consumed:], 100+consumed, sel[:3], 0)
	if fill != 1 || consumed != 2 {
		t.Fatalf("resume: fill=%d consumed=%d", fill, consumed)
	}
	if sel[0] != 105 {
		t.Errorf("resume sel[0]=%d", sel[0])
	}
}

func TestSelFromCmpOffsetSpansTiles(t *testing.T) {
	// A large selection vector keeps accumulating global indexes across
	// calls, which is exactly the ROF staging behaviour.
	sel := make([]int32, 8)
	cmpA := []byte{1, 1, 0}
	cmpB := []byte{0, 1, 1}
	fill, consumed := SelFromCmpOffset(cmpA, 0, sel, 0)
	if consumed != 3 {
		t.Fatal("tile A should be fully consumed")
	}
	fill, consumed = SelFromCmpOffset(cmpB, 3, sel, fill)
	if consumed != 3 || fill != 4 {
		t.Fatalf("fill=%d consumed=%d", fill, consumed)
	}
	want := []int32{0, 1, 4, 5}
	for i, w := range want {
		if sel[i] != w {
			t.Errorf("sel[%d]=%d, want %d", i, sel[i], w)
		}
	}
}

func TestMaskedSumsMatchBranchingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	a := make([]int32, n)
	b := make([]int32, n)
	cmp := make([]byte, n)
	for i := 0; i < n; i++ {
		a[i] = int32(rng.Intn(1000) - 500)
		b[i] = int32(rng.Intn(99) + 1)
		cmp[i] = byte(rng.Intn(2))
	}
	var wantSum, wantProd int64
	for i := 0; i < n; i++ {
		if cmp[i] == 1 {
			wantSum += int64(a[i])
			wantProd += int64(a[i]) * int64(b[i])
		}
	}
	if got := SumMasked(a, cmp); got != wantSum {
		t.Errorf("SumMasked=%d, want %d", got, wantSum)
	}
	if got := SumProdMasked(a, b, cmp); got != wantProd {
		t.Errorf("SumProdMasked=%d, want %d", got, wantProd)
	}
}

func TestMaskKeys(t *testing.T) {
	keys := []int32{7, 8, 9}
	cmp := []byte{1, 0, 1}
	out := make([]int64, 3)
	MaskKeys(keys, cmp, -1, out)
	if out[0] != 7 || out[1] != -1 || out[2] != 9 {
		t.Errorf("out=%v", out)
	}
}

func TestWiden(t *testing.T) {
	out := make([]int64, 3)
	Widen([]int8{-1, 0, 127}, out)
	if out[0] != -1 || out[1] != 0 || out[2] != 127 {
		t.Errorf("out=%v", out)
	}
}

func TestAccessMergingKernels(t *testing.T) {
	// Property: Q3's access-merged form — the predicate fused into the read
	// of x, tmp[i] = x[i] * (x[i] < c), then SumProdTmp — equals
	// predicate-then-multiply.
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		x := raw
		a := make([]int32, len(x))
		for i := range a {
			a[i] = int32(i + 1)
		}
		tmp := make([]int64, len(x))
		for i := range x {
			tmp[i] = int64(x[i]) * int64(b2i(x[i] < 13))
		}
		var want int64
		for i := range x {
			if x[i] < 13 {
				want += int64(a[i]) * int64(x[i])
			}
		}
		return SumProdTmp(a, tmp) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
