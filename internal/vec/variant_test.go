package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests for the kernels: every unrolled, int8 word and eight-lane
// selection kernel must agree with the scalar references below on every
// length (including the 0/1/63/65 tails that fall off the 64-lane sub-tile
// grid), every mask density (0%, 1%, 50%, 99%, 100%), every physical width
// the storage layer produces, and dict-coded (small non-negative codes) as
// well as raw value ranges.

// The scalar references, one per operation: a lane at a time, branching on
// the predicate, with nothing unrolled or packed. FuzzMaskOps and the unit
// tests hold the kernels to these too.

// refCmp is one lane of a compare: a op b as 0 or 1.
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

// refBetween is one lane of BETWEEN: lo <= x <= hi as 0 or 1.
func refBetween(x, lo, hi int64) byte { return refCmp(GE, x, lo) & refCmp(LE, x, hi) }

// refSumMasked sums the lanes whose mask is set.
func refSumMasked[T Number](vals []T, cmp []byte) (sum int64) {
	for i, v := range vals {
		if cmp[i] != 0 {
			sum += int64(v)
		}
	}
	return sum
}

// refSumProdMasked sums a[i]·b[i] over the lanes whose mask is set.
func refSumProdMasked[T Number](a, b []T, cmp []byte) (sum int64) {
	for i := range a {
		if cmp[i] != 0 {
			sum += int64(a[i]) * int64(b[i])
		}
	}
	return sum
}

// refMaskKeys is one lane of key masking: the key where the mask is set,
// nullKey where it is not.
func refMaskKeys(key int64, m byte, nullKey int64) int64 {
	if m == 0 {
		return nullKey
	}
	return key
}

var variantLens = []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 1000, 1023, TileSize}

var variantDensities = []int{0, 1, 50, 99, 100}

// fillMask sets each lane with probability pct/100, then pins the exact
// 0% and 100% cases so the degenerate densities are really degenerate.
func fillMask(rng *rand.Rand, cmp []byte, pct int) {
	for i := range cmp {
		cmp[i] = b2i(rng.Intn(100) < pct)
	}
	if pct == 0 {
		Fill(cmp, 0)
	}
	if pct == 100 {
		Fill(cmp, 1)
	}
}

// checkVariants runs every kernel against its scalar reference for one
// element type. lo/hi bound the generated values: raw columns use
// the full signed range of the width, dict-coded columns use small
// non-negative codes.
func checkVariants[T Number](t *testing.T, rng *rand.Rand, lo, hi int64) {
	t.Helper()
	span := hi - lo + 1
	for _, n := range variantLens {
		a := make([]T, n)
		b := make([]T, n)
		cmp := make([]byte, n)
		out := make([]byte, n)
		wide := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = T(lo + rng.Int63n(span))
			b[i] = T(lo + rng.Int63n(span))
		}
		c := T(lo + rng.Int63n(span))

		// checkLanes holds the mask a kernel wrote to want, lane by lane.
		checkLanes := func(kernel string, want func(i int) byte) {
			t.Helper()
			for i := 0; i < n; i++ {
				if w := want(i); out[i] != w {
					t.Fatalf("n=%d %s lane %d: got %d, want %d", n, kernel, i, out[i], w)
				}
			}
		}

		// Width-specialized cmp prepass, all six operators plus BETWEEN; an
		// int8 tile also through the eight-lane word loops.
		a8, isI8 := any(a).([]int8)
		for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
			want := func(i int) byte { return refCmp(op, int64(a[i]), int64(c)) }
			CmpConstU(op, a, c, out)
			checkLanes("CmpConstU "+op.String(), want)
			if isI8 {
				CmpConstI8(op, a8, int8(c), out)
				checkLanes("CmpConstI8 "+op.String(), want)
			}
		}
		clo, chi := c, T(lo+rng.Int63n(span))
		if clo > chi {
			clo, chi = chi, clo
		}
		between := func(i int) byte { return refBetween(int64(a[i]), int64(clo), int64(chi)) }
		CmpConstBetweenU(a, clo, chi, out)
		checkLanes("CmpConstBetweenU", between)
		if isI8 {
			CmpBetweenI8(a8, int8(clo), int8(chi), out)
			checkLanes("CmpBetweenI8", between)
		}

		// Unrolled widen.
		WidenU(a, wide)
		for i := 0; i < n; i++ {
			if wide[i] != int64(a[i]) {
				t.Fatalf("n=%d WidenU lane %d: got %d, want %d", n, i, wide[i], a[i])
			}
		}

		for _, pct := range variantDensities {
			fillMask(rng, cmp, pct)

			// Unrolled masked aggregation.
			if got, want := SumMaskedU(a, cmp), refSumMasked(a, cmp); got != want {
				t.Fatalf("n=%d pct=%d SumMaskedU: got %d, want %d", n, pct, got, want)
			}
			if got, want := SumProdMaskedU(a, b, cmp), refSumProdMasked(a, b, cmp); got != want {
				t.Fatalf("n=%d pct=%d SumProdMaskedU: got %d, want %d", n, pct, got, want)
			}

			// Unrolled masked key materialization.
			MaskKeysU(a, cmp, -1<<62, wide)
			for i := 0; i < n; i++ {
				if want := refMaskKeys(int64(a[i]), cmp[i], -1<<62); wide[i] != want {
					t.Fatalf("n=%d pct=%d MaskKeysU lane %d: got %d, want %d", n, pct, i, wide[i], want)
				}
			}

			// Eight-lane selection build: same vector as the no-branch
			// loop, density class consistent with the popcount.
			sel := make([]int32, n)
			selRef := make([]int32, n)
			ns, d := SelFromCmpAdaptive(cmp, sel)
			nr := SelFromCmpNoBranch(cmp, selRef)
			if ns != nr || ns != CountOnes(cmp) {
				t.Fatalf("n=%d pct=%d adaptive count=%d, want %d", n, pct, ns, nr)
			}
			for i := 0; i < ns; i++ {
				if sel[i] != selRef[i] {
					t.Fatalf("n=%d pct=%d adaptive sel[%d]=%d, want %d", n, pct, i, sel[i], selRef[i])
				}
			}
			if want := classifyDensity(ns, n); d != want {
				t.Fatalf("n=%d pct=%d density=%v, want %v", n, pct, d, want)
			}
		}
	}
}

func TestVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Raw columns at every physical width the storage layer produces.
	t.Run("int8", func(t *testing.T) { checkVariants[int8](t, rng, -128, 127) })
	t.Run("int16", func(t *testing.T) { checkVariants[int16](t, rng, -32768, 32767) })
	t.Run("int32", func(t *testing.T) { checkVariants[int32](t, rng, -(1 << 31), 1<<31-1) })
	t.Run("int64", func(t *testing.T) { checkVariants[int64](t, rng, -(1 << 40), 1<<40) })
	// Dict-coded columns: non-negative codes at the narrow widths the
	// dictionary compressor emits.
	t.Run("dict8", func(t *testing.T) { checkVariants[int8](t, rng, 0, 127) })
	t.Run("dict16", func(t *testing.T) { checkVariants[int16](t, rng, 0, 999) })
	t.Run("dict32", func(t *testing.T) { checkVariants[int32](t, rng, 0, 100000) })
}

func TestVariantsQuickRandomLengths(t *testing.T) {
	// Property over arbitrary byte slices: the eight-lane selection build,
	// the unrolled masked sums and key masking agree with the references for
	// any mask and any length.
	f := func(raw []byte) bool {
		cmp := make([]byte, len(raw))
		vals := make([]int32, len(raw))
		for i, v := range raw {
			cmp[i] = v & 1
			vals[i] = int32(v) - 128
		}
		sel := make([]int32, len(cmp))
		selRef := make([]int32, len(cmp))
		ns, _ := SelFromCmpAdaptive(cmp, sel)
		nr := SelFromCmpNoBranch(cmp, selRef)
		if ns != nr {
			return false
		}
		for i := 0; i < ns; i++ {
			if sel[i] != selRef[i] {
				return false
			}
		}
		keys := make([]int64, len(raw))
		MaskKeysU(vals, cmp, -1, keys)
		for i := range keys {
			if keys[i] != refMaskKeys(int64(vals[i]), cmp[i], -1) {
				return false
			}
		}
		return SumMaskedU(vals, cmp) == refSumMasked(vals, cmp) &&
			SumProdMaskedU(vals, vals, cmp) == refSumProdMasked(vals, vals, cmp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSelFromCmpEmptyInput(t *testing.T) {
	// Regression: SelFromCmpNoBranch used to panic on a zero-length tile
	// (sel[len(cmp)-1] with len(cmp)==0 indexes -1).
	if n := SelFromCmpNoBranch(nil, nil); n != 0 {
		t.Errorf("SelFromCmpNoBranch(nil)=%d, want 0", n)
	}
	if n := SelFromCmpNoBranch([]byte{}, []int32{}); n != 0 {
		t.Errorf("SelFromCmpNoBranch(empty)=%d, want 0", n)
	}
	if n, d := SelFromCmpAdaptive(nil, nil); n != 0 || d != DensitySparse {
		t.Errorf("SelFromCmpAdaptive(nil)=(%d,%v)", n, d)
	}
}

func TestGenericKernelsEmptyInput(t *testing.T) {
	// The zero-length guard audit: every kernel must tolerate an empty tile
	// (short final morsels produce them).
	for op := LT; op <= NE; op++ {
		CmpConstU(op, []int32{}, 0, nil)
		CmpConstI8(op, []int8{}, 0, nil)
		CmpConstI8(op, []int8{}, 127, nil)
	}
	CmpConstBetweenU([]int32{}, 0, 1, nil)
	CmpBetweenI8([]int8{}, 0, 1, nil)
	CmpCols(EQ, []int32{}, []int32{}, nil)
	And(nil, nil)
	Or(nil, nil)
	Not(nil)
	Fill(nil, 1)
	if CountOnes(nil) != 0 {
		t.Error("CountOnes(nil) != 0")
	}
	if SumMaskedU([]int32{}, nil) != 0 || SumProdMaskedU([]int32{}, []int8{}, nil) != 0 {
		t.Error("masked sums over empty tiles must be 0")
	}
	MaskKeysU([]int32{}, nil, -1, nil)
	WidenU([]int32{}, nil)
	if SumProdTmp([]int32{}, nil) != 0 {
		t.Error("SumProdTmp over empty tiles must be 0")
	}
}

func TestClassifyDensity(t *testing.T) {
	cases := []struct {
		ones, n int
		want    Density
	}{
		{0, 1024, DensitySparse},
		{64, 1024, DensitySparse},  // exactly 1/16
		{65, 1024, DensityMid},     // just above
		{512, 1024, DensityMid},    // 50%
		{959, 1024, DensityMid},    // just below 15/16
		{960, 1024, DensityDense},  // exactly 15/16
		{1024, 1024, DensityDense}, // all set
		{0, 0, DensitySparse},      // empty tile
		{1, 1, DensityDense},
		{0, 1, DensitySparse},
	}
	for _, c := range cases {
		if got := classifyDensity(c.ones, c.n); got != c.want {
			t.Errorf("classifyDensity(%d,%d)=%v, want %v", c.ones, c.n, got, c.want)
		}
	}
}

func TestCountersAddAndTotal(t *testing.T) {
	var a, b Counters
	a.CountSel(DensitySparse)
	a.CountSel(DensityMid)
	a.CountSel(DensityDense)
	a.Cmp[0] = 2
	a.Widen[3] = 3
	a.DictKeys = 1
	a.MaskedAgg = 4
	a.KeyMask = 5
	b.Add(&a)
	b.Add(&a)
	if b.SelSparse != 2 || b.SelMid != 2 || b.SelDense != 2 {
		t.Errorf("sel counters: %+v", b)
	}
	if b.Cmp[0] != 4 || b.Widen[3] != 6 || b.KeyMask != 10 {
		t.Errorf("merged counters: %+v", b)
	}
	if got, want := b.Total(), 2*a.Total(); got != want {
		t.Errorf("Total=%d, want %d", got, want)
	}
	b.Reset()
	if b.Total() != 0 {
		t.Errorf("Reset left %+v", b)
	}
}
