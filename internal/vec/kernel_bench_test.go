package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Per-kernel throughput benchmarks: the unrolled kernels at a narrow and a
// wide width, the range compare at every width beside the unrolled loops, the two selection builds, the selection build's
// kernel and the gathers by selection beside their Go loops, the mask plane's word loops
// beside the byte loops they replaced, the fused int8 loop beside the
// mask path it replaces, and the one-pass filter beside the tile walker's
// passes.
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
	a16, _, cmp16 := kernelData[int16](50)
	a32, b32, cmp32 := kernelData[int32](50)
	a64, _, cmp64 := kernelData[int64](50)
	out := make([]int64, TileSize)
	cases := map[string][]kernelCase{
		"CmpConst": {
			{"unrolled/w8", TileSize, func() { CmpConstLTU(a8, 50, cmp8) }},
			{"unrolled/w64", TileSize * 8, func() { CmpConstLTU(a64, 50, cmp64) }},
			// Each width through CmpRangeU — the AVX2 range compare over int8
			// and int16 where HasAVX2, an unrolled loop over int32 and int64 —
			// per operator class, beside the unrolled loop of the operator
			// (unrolled/w8 is x < k's): x < k, equality, BETWEEN.
			{"range/w8/lt", TileSize, func() { CmpRangeU(a8, math.MinInt64, 49, false, cmp8) }},
			{"range/w8/eq", TileSize, func() { CmpRangeU(a8, 50, 50, false, cmp8) }},
			{"byte/w8/eq", TileSize, func() { CmpConstEQU(a8, 50, cmp8) }},
			{"range/w8/between", TileSize, func() { CmpRangeU(a8, 10, 40, false, cmp8) }},
			{"byte/w8/between", TileSize, func() { CmpConstBetweenU(a8, 10, 40, cmp8) }},
			{"range/w16/lt", TileSize * 2, func() { CmpRangeU(a16, math.MinInt64, 49, false, cmp16) }},
			{"unrolled/w16/lt", TileSize * 2, func() { CmpConstLTU(a16, 50, cmp16) }},
			{"range/w16/eq", TileSize * 2, func() { CmpRangeU(a16, 50, 50, false, cmp16) }},
			{"unrolled/w16/eq", TileSize * 2, func() { CmpConstEQU(a16, 50, cmp16) }},
			{"range/w16/between", TileSize * 2, func() { CmpRangeU(a16, 10, 40, false, cmp16) }},
			{"unrolled/w16/between", TileSize * 2, func() { CmpConstBetweenU(a16, 10, 40, cmp16) }},
			{"range/w32/lt", TileSize * 4, func() { CmpRangeU(a32, math.MinInt64, 49, false, cmp32) }},
			{"range/w32/eq", TileSize * 4, func() { CmpRangeU(a32, 50, 50, false, cmp32) }},
			{"range/w32/between", TileSize * 4, func() { CmpRangeU(a32, 10, 40, false, cmp32) }},
			{"range/w64/lt", TileSize * 8, func() { CmpRangeU(a64, math.MinInt64, 49, false, cmp64) }},
			{"range/w64/eq", TileSize * 8, func() { CmpRangeU(a64, 50, 50, false, cmp64) }},
			{"range/w64/between", TileSize * 8, func() { CmpRangeU(a64, 10, 40, false, cmp64) }},
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
	// The selection build at 5, 50 and 95 %: the Go loop, and
	// SelFromCmpAdaptive, 32 lanes a step in AVX2 where HasAVX2.
	for _, pct := range []int{5, 50, 95} {
		_, _, cmp := kernelData[int32](pct)
		cases["SelFromMask"] = append(cases["SelFromMask"],
			kernelCase{"go/sel" + itoa(pct), TileSize, func() { sinkInt += selFromCmpGo(cmp, 0, sel, 0) }},
			kernelCase{"method/sel" + itoa(pct), TileSize, func() {
				n, _ := SelFromCmpAdaptive(cmp, sel)
				sinkInt += n
			}},
		)
	}
	cases["GatherSel"] = gatherCases()
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
	// where the CPU runs it the filter kernel's fold.
	x, y, _ := kernelData[int8](0)
	fa, fb, m := kernelData[int8](0)
	my := make([]byte, TileSize)
	cases["Fused"] = []kernelCase{{"mask/w8/sumprod", TileSize * 4, func() {
		CmpRangeU(x, math.MinInt64, 49, false, m)
		CmpRangeU(y, 10, math.MaxInt64, false, my)
		And(m, my)
		sinkInt += CountOnes(m)
		sinkI64 += SumProdMaskedU(fa, fb, m)
	}}}
	if HasAVX2 {
		var f Filter
		f.Add(FilterLeaf{I8: x, Lo: math.MinInt64, Hi: 49})
		f.EndClause()
		f.Add(FilterLeaf{I8: y, Lo: 10, Hi: math.MaxInt64})
		f.EndClause()
		cases["Fused"] = append(cases["Fused"], kernelCase{"avx2/w8/sumprod", TileSize * 4, func() {
			c, s, _ := f.Fold(0, TileSize, fa, fb)
			sinkI64 += c + s
		}})
	}
	if HasAVX2 {
		cases["Groups"] = groupCases()
	}
	cases["Filter"] = filterCases()
	return cases
}

// gatherCases are GatherSel's Go loop ("go") and the method ("method", the
// kernel where HasAVX2) at each width, and GatherPos's (pos), over half the
// lanes
// of a tile: a parent column of 300,000 rows (orders at SF 0.2) read through
// lane-indexed positions that ascend from a random row (seq, a child sorted
// by its key) or fall anywhere (fk), and a root column's selected rows (root).
func gatherCases() (cases []kernelCase) {
	const rows = 300_000
	rng := rand.New(rand.NewSource(4))
	seq, fk, sel := make([]int32, TileSize), make([]int32, TileSize), make([]int32, 0, TileSize)
	start := rng.Intn(rows - TileSize)
	for l := range seq {
		seq[l], fk[l] = int32(start+l), int32(rng.Intn(rows))
		if rng.Intn(2) == 0 {
			sel = append(sel, int32(l))
		}
	}
	out, pos, parent := make([]int64, TileSize), make([]int32, TileSize), make([]int32, rows)
	for i := range parent {
		parent[i] = int32(rng.Intn(rows))
	}
	add := func(name string, bytes int64, goLoop, method func()) {
		cases = append(cases, kernelCase{"go/" + name, bytes, goLoop}, kernelCase{"method/" + name, bytes, method})
	}
	width := func(w string, size int64, gather func(src []int32, out []int64), loop func(src []int32, out []int64)) {
		for _, src := range []struct {
			name string
			pos  []int32
		}{{"seq", seq}, {"fk", fk}} {
			add(w+"/"+src.name, int64(len(sel))*size, func() { loop(src.pos, out) }, func() { gather(src.pos, out) })
		}
		add(w+"/root", int64(len(sel))*size, func() { loop(nil, out) }, func() { gather(nil, out) })
	}
	w8, w16, w32, w64 := gatherColumn[int8](rng, rows), gatherColumn[int16](rng, rows), gatherColumn[int32](rng, rows), gatherColumn[int64](rng, rows)
	width("w8", 1, func(src []int32, out []int64) { GatherSel(w8, src, sel, out) }, func(src []int32, out []int64) { gatherSelGo(w8, src, sel, out) })
	width("w16", 2, func(src []int32, out []int64) { GatherSel(w16, src, sel, out) }, func(src []int32, out []int64) { gatherSelGo(w16, src, sel, out) })
	width("w32", 4, func(src []int32, out []int64) { GatherSel(w32, src, sel, out) }, func(src []int32, out []int64) { gatherSelGo(w32, src, sel, out) })
	width("w64", 8, func(src []int32, out []int64) { GatherSel(w64, src, sel, out) }, func(src []int32, out []int64) { gatherSelGo(w64, src, sel, out) })
	for _, src := range []struct {
		name string
		pos  []int32
	}{{"seq", seq}, {"fk", fk}} {
		add("pos/"+src.name, int64(len(sel))*4, func() { gatherPosGo(parent, src.pos, sel, pos) }, func() { GatherPos(parent, src.pos, sel, pos) })
	}
	return cases
}

// gatherColumn is a column of n random values of width T.
func gatherColumn[T Number](rng *rand.Rand, n int) []T {
	c := make([]T, n)
	for i := range c {
		c[i] = T(rng.Uint64())
	}
	return c
}

// filterCases are tpch_generic's four root filter shapes over 1,024 lanes,
// each as the tile walker's passes (eval: Evaluator.EvalBool's calls, a
// compare per leaf into a scratch mask, the saturation check before each
// later term, then And, Or or Not) and, where the CPU runs it, as one
// Filter (avx2). q1_multiagg: d <= c, int16; minmax_group: x > 25 AND d >=
// c; or3_having: x < 5 OR y > 8 OR d < c; not_scalar: NOT (x BETWEEN 10 AND
// 40) AND y < 5 AND d >= c — x and y int8, d int16.
func filterCases() (cases []kernelCase) {
	x, y, out := kernelData[int8](0)
	d16, _, tmp := kernelData[int16](0)
	const c = 60
	shapes := []struct {
		name   string
		eval   func()
		leaves [][]FilterLeaf
	}{
		{"one-i16", func() { CmpRangeU(d16, math.MinInt64, c, false, out) },
			[][]FilterLeaf{{{I16: d16, Lo: math.MinInt16, Hi: c}}}},
		{"and-i8-i16", func() {
			CmpRangeU(x, 26, math.MaxInt64, false, out)
			if !AllZeros(out) {
				CmpRangeU(d16, c, math.MaxInt64, false, tmp)
				And(out, tmp)
			}
		}, [][]FilterLeaf{{{I8: x, Lo: 26, Hi: math.MaxInt8}}, {{I16: d16, Lo: c, Hi: math.MaxInt16}}}},
		{"or-i8-i8-i16", func() {
			CmpRangeU(x, math.MinInt64, 4, false, out)
			for _, f := range []func(){func() { CmpRangeU(y, 9, math.MaxInt64, false, tmp) }, func() { CmpRangeU(d16, math.MinInt64, c-1, false, tmp) }} {
				if AllOnes(out) {
					break
				}
				f()
				Or(out, tmp)
			}
		}, [][]FilterLeaf{{{I8: x, Lo: math.MinInt8, Hi: 4}, {I8: y, Lo: 9, Hi: math.MaxInt8}, {I16: d16, Lo: math.MinInt16, Hi: c - 1}}}},
		{"not-between-and-i8-i16", func() {
			CmpRangeU(x, 10, 40, true, out)
			for _, f := range []func(){func() { CmpRangeU(y, math.MinInt64, 4, false, tmp) }, func() { CmpRangeU(d16, c, math.MaxInt64, false, tmp) }} {
				if AllZeros(out) {
					break
				}
				f()
				And(out, tmp)
			}
		}, [][]FilterLeaf{{{I8: x, Lo: 10, Hi: 40, Not: true}}, {{I8: y, Lo: math.MinInt8, Hi: 4}}, {{I16: d16, Lo: c, Hi: math.MaxInt16}}}},
	}
	for _, s := range shapes {
		cases = append(cases, kernelCase{"eval/" + s.name, TileSize, s.eval})
		if !HasAVX2 {
			continue
		}
		f := new(Filter)
		for _, clause := range s.leaves {
			for _, l := range clause {
				f.Add(l)
			}
			f.EndClause()
		}
		cases = append(cases, kernelCase{"avx2/" + s.name, TileSize, func() { f.Eval(0, TileSize, out) }})
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
func BenchmarkKernelFilter(bm *testing.B)    { runKernels(bm, "Filter") }

func BenchmarkKernelSelFromMask(bm *testing.B) { runKernels(bm, "SelFromMask") }
func BenchmarkKernelGatherSel(bm *testing.B)   { runKernels(bm, "GatherSel") }

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
