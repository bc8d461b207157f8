package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests for the specialized kernel variants: every unrolled /
// width-specialized / adaptive kernel must agree with the generic reference
// implementation on every length (including the 0/1/63/65 tails that fall
// off the 64-lane sub-tile grid), every mask density (0%, 1%, 50%, 99%,
// 100%), every physical width the storage layer produces, and dict-coded
// (small non-negative codes) as well as raw value ranges.

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

// checkVariants runs every specialized kernel against its generic reference
// for one element type. lo/hi bound the generated values: raw columns use
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
		outRef := make([]byte, n)
		wide := make([]int64, n)
		wideRef := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = T(lo + rng.Int63n(span))
			b[i] = T(lo + rng.Int63n(span))
		}
		c := T(lo + rng.Int63n(span))

		// Width-specialized cmp prepass, all six operators plus BETWEEN.
		for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
			CmpConstU(op, a, c, out)
			CmpConst(op, a, c, outRef)
			for i := 0; i < n; i++ {
				if out[i] != outRef[i] {
					t.Fatalf("n=%d CmpConstU(%v) lane %d: got %d, want %d", n, op, i, out[i], outRef[i])
				}
			}
		}
		clo, chi := c, T(lo+rng.Int63n(span))
		if clo > chi {
			clo, chi = chi, clo
		}
		CmpConstBetweenU(a, clo, chi, out)
		CmpConstBetween(a, clo, chi, outRef)
		for i := 0; i < n; i++ {
			if out[i] != outRef[i] {
				t.Fatalf("n=%d CmpConstBetweenU lane %d: got %d, want %d", n, i, out[i], outRef[i])
			}
		}

		// Unrolled widen.
		WidenU(a, wide)
		Widen(a, wideRef)
		for i := 0; i < n; i++ {
			if wide[i] != wideRef[i] {
				t.Fatalf("n=%d WidenU lane %d: got %d, want %d", n, i, wide[i], wideRef[i])
			}
		}

		for _, pct := range variantDensities {
			fillMask(rng, cmp, pct)

			// Unrolled masked aggregation.
			if got, want := SumMaskedU(a, cmp), SumMasked(a, cmp); got != want {
				t.Fatalf("n=%d pct=%d SumMaskedU: got %d, want %d", n, pct, got, want)
			}
			if got, want := SumProdMaskedU(a, b, cmp), SumProdMasked(a, b, cmp); got != want {
				t.Fatalf("n=%d pct=%d SumProdMaskedU: got %d, want %d", n, pct, got, want)
			}

			// Unrolled masked key materialization.
			MaskKeysU(a, cmp, -1<<62, wide)
			MaskKeys(a, cmp, -1<<62, wideRef)
			for i := 0; i < n; i++ {
				if wide[i] != wideRef[i] {
					t.Fatalf("n=%d pct=%d MaskKeysU lane %d: got %d, want %d", n, pct, i, wide[i], wideRef[i])
				}
			}

			// Adaptive selection build: same vector as the references,
			// density class consistent with the popcount.
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
			if want := ClassifyDensity(ns, n); d != want {
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
	// Property over arbitrary byte slices: adaptive selection and unrolled
	// masked sum agree with the references for any mask and any length.
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
		return SumMaskedU(vals, cmp) == SumMasked(vals, cmp)
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
	// The zero-length guard audit: every generic kernel must tolerate an
	// empty tile (short final morsels produce them).
	CmpConst(LT, []int32{}, 0, nil)
	CmpConstBetween([]int32{}, 0, 1, nil)
	CmpCols(EQ, []int32{}, []int32{}, nil)
	And(nil, nil)
	Or(nil, nil)
	Not(nil)
	Fill(nil, 1)
	if CountOnes(nil) != 0 {
		t.Error("CountOnes(nil) != 0")
	}
	if SumMasked([]int32{}, nil) != 0 || SumProdMasked([]int32{}, nil, nil) != 0 {
		t.Error("masked sums over empty tiles must be 0")
	}
	MaskKeys([]int32{}, nil, -1, nil)
	Widen([]int32{}, nil)
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
		if got := ClassifyDensity(c.ones, c.n); got != c.want {
			t.Errorf("ClassifyDensity(%d,%d)=%v, want %v", c.ones, c.n, got, c.want)
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
