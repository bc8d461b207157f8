package vec

import (
	"math/rand"
	"testing"
)

// Per-kernel throughput benchmarks: the unrolled kernels at a narrow and a
// wide width, the int8 word compares beside the unrolled byte loops, the two
// selection builds, the mask plane's word loops beside the byte loops they
// replaced, and the fused int8 loop beside the mask path it replaces.
// TestKernelsZeroAlloc runs the same bodies under the zero-allocation gate.

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
	// sum(a*b) where x < 50 and y >= 10 over int8 lanes: the mask path, and
	// where the CPU runs it the fused loop.
	x, y, _ := kernelData[int8](0)
	fa, fb, m := kernelData[int8](0)
	my := make([]byte, TileSize)
	cases["Fused"] = []kernelCase{{"mask/w8/sumprod", TileSize * 4, func() {
		CmpConstI8(LT, x, 50, m)
		CmpConstI8(GE, y, 10, my)
		And(m, my)
		sinkInt += CountOnes(m)
		sinkI64 += SumProdMaskedU(fa, fb, m)
	}}}
	if HasAVX2 {
		cases["Fused"] = append(cases["Fused"], kernelCase{"avx2/w8/sumprod", TileSize * 4, func() {
			c, s := SumFusedI8(x, CmpRangeI8(LT, 50), y, CmpRangeI8(GE, 10), fa, fb)
			sinkI64 += c + s
		}})
	}
	if HasAVX2 {
		cases["Groups"] = groupCases()
	}
	return cases
}

// groupCases are GroupFold's passes over one tile into a table of 2, 8, 16
// and 32 slots (one key fewer, and the throwaway record), called directly so
// that they run past GroupSlots: the records of ht's BenchmarkKernelGroups,
// without adding the sums into a table. Half the lanes pass; sum1 and minmax
// are under value masking, sum2 and sum2w (int32 sums widened) under key
// masking.
func groupCases() (cases []kernelCase) {
	k, a8, _ := kernelData[int8](0)
	a32, _, cmp := kernelData[int32](50)
	var slots [TileSize + 32]byte
	var cnt, x, y [2 * GroupSlots]int64
	out := func(a *[2 * GroupSlots]int64) *[GroupSlots]int64 { return (*[GroupSlots]int64)(a[:]) }
	for _, n := range []int{2, 8, 16, 32} {
		keys := make([]int8, TileSize)
		for i := range keys {
			keys[i] = int8(int(k[i]) % (n - 1))
		}
		pass := func(reject int) {
			key := [4]int16{0, 0, int16(n - 2), int16(reject)}
			groupSlots(&keys[0], &keys[0], &cmp[0], TileSize, &key, &slots[0])
		}
		cases = append(cases,
			kernelCase{"avx2/sum1/" + itoa(n), TileSize * 3, func() {
				pass(0xff)
				groupSumI8(&slots[0], TileSize, &a8[0], n-1, out(&cnt), out(&x))
			}},
			kernelCase{"avx2/sum2/" + itoa(n), TileSize * 7, func() {
				pass(n - 1)
				groupSumI8(&slots[0], TileSize, &a8[0], n, out(&cnt), out(&x))
				groupSumI32(&slots[0], TileSize, &a32[0], n, out(&cnt), out(&y))
			}},
			kernelCase{"avx2/sum2w/" + itoa(n), TileSize * 7, func() {
				pass(n - 1)
				groupSumI8(&slots[0], TileSize, &a8[0], n, out(&cnt), out(&x))
				groupSumI32W(&slots[0], TileSize, &a32[0], n, out(&cnt), out(&y))
			}},
			kernelCase{"avx2/minmax/" + itoa(n), TileSize * 6, func() {
				pass(0xff)
				groupMinMaxI32(&slots[0], TileSize, &a32[0], n-1, out(&cnt), out(&x), out(&y))
			}},
		)
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
func BenchmarkKernelFused(bm *testing.B)     { runKernels(bm, "Fused") }
func BenchmarkKernelGroups(bm *testing.B)    { runKernels(bm, "Groups") }

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
