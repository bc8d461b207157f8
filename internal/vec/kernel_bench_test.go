package vec

import (
	"math/rand"
	"testing"
)

// Per-kernel throughput benchmarks: the unrolled kernels at a narrow and a
// wide width, the int8 word compares beside the unrolled byte loops, the two
// selection builds, and the mask plane's word loops beside the byte loops
// they replaced. TestKernelsZeroAlloc runs the same bodies under the
// zero-allocation gate.

func kernelData[T Number](pct int) (a, b []T, cmp []byte) {
	rng := rand.New(rand.NewSource(3))
	a = make([]T, TileSize)
	b = make([]T, TileSize)
	cmp = make([]byte, TileSize)
	for i := range a {
		a[i] = T(rng.Intn(100))
		b[i] = T(rng.Intn(100))
		cmp[i] = b2i(rng.Intn(100) < pct)
	}
	return
}

// kernelCase is one sub-benchmark: the bytes one call reads (reported as
// throughput; 0 reports none) and the call.
type kernelCase struct {
	name  string
	bytes int64
	fn    func()
}

// kernelCases are the bodies of the BenchmarkKernel functions, keyed by the
// function's name without its prefix.
func kernelCases() map[string][]kernelCase {
	a8, _, cmp8 := kernelData[int8](50)
	a32, b32, cmp32 := kernelData[int32](50)
	a64, _, cmp64 := kernelData[int64](50)
	out := make([]int64, TileSize)
	cases := map[string][]kernelCase{
		"CmpConst": {
			{"unrolled/w8", TileSize, func() { CmpConstLTU(a8, 50, cmp8) }},
			{"unrolled/w64", TileSize * 8, func() { CmpConstLTU(a64, 50, cmp64) }},
			// int8 eight lanes a word against the unrolled byte loop, per loop
			// of CmpConstI8: x < k, equality, BETWEEN.
			{"word/w8/lt", TileSize, func() { CmpConstI8(LT, a8, 50, cmp8) }},
			{"byte/w8/lt", TileSize, func() { CmpConstU(LT, a8, 50, cmp8) }},
			{"word/w8/eq", TileSize, func() { CmpConstI8(EQ, a8, 50, cmp8) }},
			{"byte/w8/eq", TileSize, func() { CmpConstU(EQ, a8, 50, cmp8) }},
			{"word/w8/between", TileSize, func() { CmpBetweenI8(a8, 10, 40, cmp8) }},
			{"byte/w8/between", TileSize, func() { CmpConstBetweenU(a8, 10, 40, cmp8) }},
		},
		"Widen": {
			{"unrolled/w8", TileSize, func() { WidenU(a8, out) }},
			{"unrolled/w32", TileSize * 4, func() { WidenU(a32, out) }},
		},
		"SumMasked": {
			{"unrolled/w32", TileSize * 4, func() { sinkI64 += SumMaskedU(a32, cmp32) }},
			{"unrolled-prod/w32", TileSize * 8, func() { sinkI64 += SumProdMaskedU(a32, b32, cmp32) }},
		},
		"MaskKeys": {
			{"unrolled/w32", TileSize * 4, func() { MaskKeysU(a32, cmp32, -1, out) }},
		},
	}
	sel := make([]int32, TileSize)
	for _, pct := range []int{1, 50, 99} {
		_, _, cmp := kernelData[int32](pct)
		cases["Sel"] = append(cases["Sel"],
			kernelCase{"nobranch/sel" + itoa(pct), 0, func() { sinkInt += SelFromCmpNoBranch(cmp, sel) }},
			kernelCase{"adaptive/sel" + itoa(pct), 0, func() {
				n, _ := SelFromCmpAdaptive(cmp, sel)
				sinkInt += n
			}},
		)
	}
	// The mask plane's word-at-a-time kernels against the byte loops they
	// replaced (the fuzz target's references).
	_, _, a := kernelData[int8](50)
	_, _, b := kernelData[int8](30)
	_, _, c := kernelData[int8](50)
	ones := make([]byte, TileSize)
	Fill(ones, 1)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"word/and", func() { And(a, b) }}, {"byte/and", func() { refAnd(a, b) }},
		{"word/or", func() { Or(a, b) }}, {"byte/or", func() { refOr(a, b) }},
		{"word/not", func() { Not(a) }}, {"byte/not", func() { refNot(a) }},
		{"word/fill", func() { Fill(a, 1) }}, {"byte/fill", func() { refFill(a, 1) }},
		{"word/count", func() { sinkInt += CountOnes(c) }}, {"byte/count", func() { sinkInt += refCount(c) }},
		{"word/allones", func() { sinkInt += int(b2i(AllOnes(ones))) }},
	} {
		cases["MaskOps"] = append(cases["MaskOps"], kernelCase{k.name, TileSize, k.fn})
	}
	return cases
}

func runKernels(bm *testing.B, name string) {
	for _, c := range kernelCases()[name] {
		bm.Run(c.name, func(bm *testing.B) {
			if c.bytes > 0 {
				bm.SetBytes(c.bytes)
			}
			for i := 0; i < bm.N; i++ {
				c.fn()
			}
		})
	}
}

func BenchmarkKernelCmpConst(bm *testing.B)  { runKernels(bm, "CmpConst") }
func BenchmarkKernelWiden(bm *testing.B)     { runKernels(bm, "Widen") }
func BenchmarkKernelSumMasked(bm *testing.B) { runKernels(bm, "SumMasked") }
func BenchmarkKernelMaskKeys(bm *testing.B)  { runKernels(bm, "MaskKeys") }
func BenchmarkKernelSel(bm *testing.B)       { runKernels(bm, "Sel") }
func BenchmarkKernelMaskOps(bm *testing.B)   { runKernels(bm, "MaskOps") }

// TestKernelsZeroAlloc: the kernels are tile loops over the caller's
// buffers, and no call of any BenchmarkKernel row may allocate.
func TestKernelsZeroAlloc(t *testing.T) {
	for bench, cases := range kernelCases() {
		for _, c := range cases {
			if allocs := testing.AllocsPerRun(10, c.fn); allocs != 0 {
				t.Errorf("BenchmarkKernel%s/%s: %.1f allocs per call, want 0", bench, c.name, allocs)
			}
		}
	}
}
