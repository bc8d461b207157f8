package bitmap

import (
	"math/rand"
	"strconv"
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

// packCase is one BenchmarkKernelBitmapPack row: call i moves cmp into the
// bitmap at the i-th tile base.
type packCase struct {
	name string
	fn   func(i int)
}

// packCases move a 1,024-lane mask into a bitmap 64 lanes per word, and by
// the bit-at-a-time loops it replaced (the fuzz target's references), at a
// word-aligned base and one lane past it.
func packCases() (cases []packCase, cmp []byte) {
	cmp = make([]byte, 1024)
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
		} {
			cases = append(cases, packCase{k.name + "/base+" + string(rune('0'+off)), func(i int) {
				k.fn(bm, (i*1024)&(1<<19-1024)+off, cmp)
			}})
		}
	}
	return cases, cmp
}

// BenchmarkKernelBitmapPack prices the packCases.
func BenchmarkKernelBitmapPack(b *testing.B) {
	cases, cmp := packCases()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(cmp)))
			for i := 0; i < b.N; i++ {
				c.fn(i)
			}
		})
	}
}

// TestPackZeroAlloc: no call of any BenchmarkKernelBitmapPack row allocates.
func TestPackZeroAlloc(t *testing.T) {
	cases, _ := packCases()
	for _, c := range cases {
		i := 0
		if allocs := testing.AllocsPerRun(10, func() { c.fn(i); i++ }); allocs != 0 {
			t.Errorf("BenchmarkKernelBitmapPack/%s: %.1f allocs per call, want 0", c.name, allocs)
		}
	}
}

// probeCases probe a 1,024-lane tile of random positions into a half-set
// bitmap the size of part's (40,000 bits, 5 KB) and of orders' (300,000
// bits, 37.5 KB) at SF 0.2: AndGather into a mask whose lanes are set at
// 100, 50 and 5 %, and SelectGather over a selection of those lanes (each
// call first restores the selection, in both rows), by the method — the AVX2
// kernels where vec.HasAVX2 — and by the Go loops it replaced (the fuzz
// target's references).
func probeCases() (cases []packCase) {
	for _, t := range []struct {
		name string
		bits int
	}{{"part", 40_000}, {"orders", 300_000}} {
		bm, probe := benchBitmap(t.bits, 50)
		pos := probe[:1024]
		for _, pct := range []int{100, 50, 5} {
			rng := rand.New(rand.NewSource(int64(pct)))
			cmp, tile := make([]byte, len(pos)), make([]byte, len(pos))
			var lanes []int32
			for j := range cmp {
				if rng.Intn(100) < pct {
					cmp[j] = 1
					lanes = append(lanes, int32(j))
				}
			}
			sel := make([]int32, len(lanes))
			suffix := "/" + t.name + "/sel" + strconv.Itoa(pct)
			cases = append(cases,
				packCase{"method/and" + suffix, func(int) { copy(tile, cmp); bm.AndGather(pos, tile) }},
				packCase{"go/and" + suffix, func(int) { copy(tile, cmp); refAndGather(bm.words, pos, tile) }},
				packCase{"method/select" + suffix, func(int) { copy(sel, lanes); sinkByte += byte(bm.SelectGather(pos, sel)) }},
				packCase{"go/select" + suffix, func(int) { copy(sel, lanes); sinkByte += byte(refSelectGather(bm.words, pos, sel)) }},
			)
		}
	}
	return cases
}

// BenchmarkKernelBitmapProbe prices the probeCases per 1,024-lane tile.
func BenchmarkKernelBitmapProbe(b *testing.B) {
	for _, c := range probeCases() {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn(i)
			}
		})
	}
}

// TestProbeZeroAlloc: no call of any BenchmarkKernelBitmapProbe row
// allocates.
func TestProbeZeroAlloc(t *testing.T) {
	for _, c := range probeCases() {
		if allocs := testing.AllocsPerRun(10, func() { c.fn(0) }); allocs != 0 {
			t.Errorf("BenchmarkKernelBitmapProbe/%s: %.1f allocs per call, want 0", c.name, allocs)
		}
	}
}
