package vec

import (
	"math/rand"
	"testing"
)

// Per-variant throughput benchmarks for the specialized kernel layer. The
// CI kernels job runs these and commits the results as BENCH_kernels.json,
// pinning the trajectory of each variant against its generic reference.

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

func BenchmarkKernelCmpConst(bm *testing.B) {
	bm.Run("generic/w8", func(bm *testing.B) {
		a, _, cmp := kernelData[int8](50)
		bm.SetBytes(TileSize)
		for i := 0; i < bm.N; i++ {
			CmpConstLT(a, 50, cmp)
		}
	})
	bm.Run("unrolled/w8", func(bm *testing.B) {
		a, _, cmp := kernelData[int8](50)
		bm.SetBytes(TileSize)
		for i := 0; i < bm.N; i++ {
			CmpConstLTU(a, 50, cmp)
		}
	})
	bm.Run("generic/w64", func(bm *testing.B) {
		a, _, cmp := kernelData[int64](50)
		bm.SetBytes(TileSize * 8)
		for i := 0; i < bm.N; i++ {
			CmpConstLT(a, 50, cmp)
		}
	})
	bm.Run("unrolled/w64", func(bm *testing.B) {
		a, _, cmp := kernelData[int64](50)
		bm.SetBytes(TileSize * 8)
		for i := 0; i < bm.N; i++ {
			CmpConstLTU(a, 50, cmp)
		}
	})
}

func BenchmarkKernelWiden(bm *testing.B) {
	out := make([]int64, TileSize)
	bm.Run("generic/w8", func(bm *testing.B) {
		a, _, _ := kernelData[int8](50)
		bm.SetBytes(TileSize)
		for i := 0; i < bm.N; i++ {
			Widen(a, out)
		}
	})
	bm.Run("unrolled/w8", func(bm *testing.B) {
		a, _, _ := kernelData[int8](50)
		bm.SetBytes(TileSize)
		for i := 0; i < bm.N; i++ {
			WidenU(a, out)
		}
	})
	bm.Run("generic/w32", func(bm *testing.B) {
		a, _, _ := kernelData[int32](50)
		bm.SetBytes(TileSize * 4)
		for i := 0; i < bm.N; i++ {
			Widen(a, out)
		}
	})
	bm.Run("unrolled/w32", func(bm *testing.B) {
		a, _, _ := kernelData[int32](50)
		bm.SetBytes(TileSize * 4)
		for i := 0; i < bm.N; i++ {
			WidenU(a, out)
		}
	})
}

func BenchmarkKernelSumMasked(bm *testing.B) {
	bm.Run("generic/w32", func(bm *testing.B) {
		a, _, cmp := kernelData[int32](50)
		bm.SetBytes(TileSize * 4)
		for i := 0; i < bm.N; i++ {
			sinkI64 += SumMasked(a, cmp)
		}
	})
	bm.Run("unrolled/w32", func(bm *testing.B) {
		a, _, cmp := kernelData[int32](50)
		bm.SetBytes(TileSize * 4)
		for i := 0; i < bm.N; i++ {
			sinkI64 += SumMaskedU(a, cmp)
		}
	})
	bm.Run("generic-prod/w32", func(bm *testing.B) {
		a, b, cmp := kernelData[int32](50)
		bm.SetBytes(TileSize * 8)
		for i := 0; i < bm.N; i++ {
			sinkI64 += SumProdMasked(a, b, cmp)
		}
	})
	bm.Run("unrolled-prod/w32", func(bm *testing.B) {
		a, b, cmp := kernelData[int32](50)
		bm.SetBytes(TileSize * 8)
		for i := 0; i < bm.N; i++ {
			sinkI64 += SumProdMaskedU(a, b, cmp)
		}
	})
}

func BenchmarkKernelMaskKeys(bm *testing.B) {
	out := make([]int64, TileSize)
	bm.Run("generic/w32", func(bm *testing.B) {
		a, _, cmp := kernelData[int32](50)
		bm.SetBytes(TileSize * 4)
		for i := 0; i < bm.N; i++ {
			MaskKeys(a, cmp, -1, out)
		}
	})
	bm.Run("unrolled/w32", func(bm *testing.B) {
		a, _, cmp := kernelData[int32](50)
		bm.SetBytes(TileSize * 4)
		for i := 0; i < bm.N; i++ {
			MaskKeysU(a, cmp, -1, out)
		}
	})
}

func BenchmarkKernelSel(bm *testing.B) {
	sel := make([]int32, TileSize)
	for _, pct := range []int{1, 50, 99} {
		_, _, cmp := kernelData[int32](pct)
		bm.Run("branch/sel"+itoa(pct), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				sinkInt += SelFromCmpBranch(cmp, sel)
			}
		})
		bm.Run("nobranch/sel"+itoa(pct), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				sinkInt += SelFromCmpNoBranch(cmp, sel)
			}
		})
		bm.Run("adaptive/sel"+itoa(pct), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				n, _ := SelFromCmpAdaptive(cmp, sel)
				sinkInt += n
			}
		})
	}
}

func BenchmarkKernelSumSel(bm *testing.B) {
	a, _, cmp := kernelData[int32](50)
	sel := make([]int32, TileSize)
	n := SelFromCmpBranch(cmp, sel)
	bm.Run("generic", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			sinkI64 += SumSel(a, sel, n)
		}
	})
	bm.Run("unrolled", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			sinkI64 += SumSelU(a, sel, n)
		}
	})
}

// BenchmarkKernelMaskOps prices the mask plane's word-at-a-time kernels
// against the byte loops they replaced (the fuzz target's references).
func BenchmarkKernelMaskOps(bm *testing.B) {
	_, _, a := kernelData[int8](50)
	_, _, b := kernelData[int8](30)
	run := func(name string, fn func()) {
		bm.Run(name, func(bm *testing.B) {
			bm.SetBytes(TileSize)
			for i := 0; i < bm.N; i++ {
				fn()
			}
		})
	}
	run("word/and", func() { And(a, b) })
	run("byte/and", func() { refAnd(a, b) })
	run("word/or", func() { Or(a, b) })
	run("byte/or", func() { refOr(a, b) })
	run("word/not", func() { Not(a) })
	run("byte/not", func() { refNot(a) })
	run("word/fill", func() { Fill(a, 1) })
	run("byte/fill", func() { refFill(a, 1) })
	_, _, c := kernelData[int8](50)
	run("word/count", func() { sinkInt += CountOnes(c) })
	run("byte/count", func() { sinkInt += refCount(c) })
	Fill(a, 1)
	run("word/allones", func() { sinkInt += int(b2i(AllOnes(a))) })
}
