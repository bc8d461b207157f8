package bitmap

import (
	"math/rand"
	"testing"
)

// Benchmarks for the positional-bitmap probe and build paths.

var sinkByte byte

func benchBitmap(n, pct int) (*Bitmap, []int32) {
	rng := rand.New(rand.NewSource(3))
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(100) < pct {
			b.Set(i)
		}
	}
	probe := make([]int32, 1<<14)
	for i := range probe {
		probe[i] = int32(rng.Intn(n))
	}
	return b, probe
}

func BenchmarkTestBitRandom(b *testing.B) {
	bm, probe := benchBitmap(100_000_000, 50) // paper's 100M-position size
	for i := 0; i < b.N; i++ {
		sinkByte += bm.TestBit(int(probe[i&(len(probe)-1)]))
	}
}

func BenchmarkBuild(b *testing.B) {
	cmp := make([]byte, 1024)
	for i := range cmp {
		cmp[i] = byte(i & 1)
	}
	bm := New(1 << 20)
	b.Run("predicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bm.SetFromCmp((i*1024)&(1<<20-1024), cmp)
		}
	})
}

// BenchmarkKernelBitmapPack prices moving a 1,024-lane mask in and out of a
// bitmap 64 lanes per word against the bit-at-a-time loops it replaced (the
// fuzz target's references), at a word-aligned base and one lane past it.
func BenchmarkKernelBitmapPack(b *testing.B) {
	cmp := make([]byte, 1024)
	for i := range cmp {
		cmp[i] = byte(i>>2) & 1
	}
	bm := New(1 << 20)
	for _, off := range []int{0, 1} {
		for _, k := range []struct {
			name string
			fn   func(b *Bitmap, base int, cmp []byte)
		}{
			{"packed/set", (*Bitmap).SetFromCmp}, {"bit/set", refSet},
			{"packed/or", (*Bitmap).OrFromCmp}, {"bit/or", refOr},
			{"packed/read", (*Bitmap).ReadCmp}, {"bit/read", refRead},
		} {
			b.Run(k.name+"/base+"+string(rune('0'+off)), func(b *testing.B) {
				b.SetBytes(int64(len(cmp)))
				for i := 0; i < b.N; i++ {
					k.fn(bm, (i*1024)&(1<<19-1024)+off, cmp)
				}
			})
		}
	}
}
