package bitmap

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

// FuzzBitmapProbe holds AndGather and SelectGather, which run AVX2 kernels
// over whole steps where vec.HasAVX2, to the Go loops they replace, kept here
// as the reference: over bitmaps of any length (not only multiples of 32 or
// 64 bits) with the top bit of the last word settable, 0 to 1,024 lanes whose
// pos, sel and cmp start at any of 32 offsets into their backing arrays,
// every 13th position 0, every 17th the last bit and every 19th the last
// word's top bit, and sel a random or a strided subset of the lanes.

func refAndGather(words []uint64, pos []int32, cmp []byte) {
	for j, p := range pos {
		cmp[j] &= byte(words[uint32(p)>>6] >> (uint32(p) & 63) & 1)
	}
}

func refSelectGather(words []uint64, pos []int32, sel []int32) int {
	k := 0
	for _, j := range sel {
		p := uint32(pos[j])
		sel[k] = j
		k += int(words[p>>6] >> (p & 63) & 1)
	}
	return k
}

func FuzzBitmapProbe(f *testing.F) {
	f.Add(int64(1), uint16(40_000), uint16(1024), uint8(0), uint8(0), uint8(50))
	f.Add(int64(2), uint16(1), uint16(33), uint8(3), uint8(1), uint8(100))
	f.Add(int64(3), uint16(63), uint16(1000), uint8(7), uint8(3), uint8(5))
	f.Add(int64(4), uint16(64), uint16(31), uint8(31), uint8(0), uint8(0))
	f.Add(int64(5), uint16(65), uint16(257), uint8(1), uint8(8), uint8(95))
	f.Add(int64(6), uint16(4095), uint16(0), uint8(2), uint8(0), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, nbits, n uint16, off, stride, pct uint8) {
		if !vec.HasAVX2 {
			t.Skip("no AVX2: the probes have no kernel on this CPU")
		}
		r := rand.New(rand.NewSource(seed))
		bits, l, o := 1+int(nbits), int(n)%1025, int(off%32)
		b := New(bits)
		top := 64*len(b.words) - 1
		for i := 0; i < bits; i++ {
			if r.Intn(100) < int(pct) {
				b.Set(i)
			}
		}
		if r.Intn(2) == 0 {
			b.Set(top)
		}
		pos := make([]int32, o+l)[o:]
		cmp := make([]byte, o+l)[o:]
		for j := range pos {
			switch {
			case j%13 == 0:
				pos[j] = 0
			case j%17 == 0:
				pos[j] = int32(bits - 1)
			case j%19 == 0:
				pos[j] = int32(top)
			default:
				pos[j] = int32(r.Intn(top + 1))
			}
			cmp[j] = byte(r.Intn(2))
		}
		want := slices.Clone(cmp)
		refAndGather(b.words, pos, want)
		b.AndGather(pos, cmp)
		if !slices.Equal(cmp, want) {
			t.Fatalf("%d bits, %d lanes, off %d: AndGather %v, want %v", bits, l, o, cmp, want)
		}
		sel := make([]int32, o+l)[o:o]
		for j := 0; j < l; j++ {
			if stride == 0 && r.Intn(100) < int(pct) || stride > 0 && j%int(stride) == 0 {
				sel = append(sel, int32(j))
			}
		}
		ref := slices.Clone(sel)
		k := refSelectGather(b.words, pos, ref)
		if got := b.SelectGather(pos, sel); got != k || !slices.Equal(sel[:got], ref[:k]) {
			t.Fatalf("%d bits, %d lanes, off %d, stride %d: SelectGather kept %v, want %v", bits, l, o, stride, sel[:got], ref[:k])
		}
	})
}
