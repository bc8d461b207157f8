package vec

import (
	"math"
	"slices"
	"testing"
)

// FuzzCmpI16 holds CmpConstI16 and CmpBetweenI16, which run the AVX2 range
// compare over whole 32-lane steps where HasAVX2, to CmpConstU and
// CmpConstBetweenU: every operator at the fuzzer's constant and at -32768,
// -32767 and 32767, and BETWEEN at the fuzzer's bounds, at lo > hi and at the
// ends of int16, over 0 to 2·TileSize+40 lanes that start at any of 32
// offsets into their backing arrays. Every 17th lane is -32768, every 19th
// 32767 and every 23rd the constant; no byte of out past the lanes changes.
func FuzzCmpI16(f *testing.F) {
	f.Add([]byte{3, 200, 50, 1, 0x80, 0x7f}, uint8(0), uint16(32), int16(50), int16(-5), int16(5))
	f.Add([]byte{0x80, 0x7f, 0xff, 0}, uint8(1), uint16(31), int16(math.MinInt16), int16(1), int16(0))
	f.Add([]byte{9}, uint8(7), uint16(TileSize), int16(math.MaxInt16), int16(math.MinInt16), int16(math.MaxInt16))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(31), uint16(TileSize+33), int16(-1), int16(100), int16(-100))
	f.Add([]byte{}, uint8(3), uint16(0), int16(0), int16(0), int16(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, n uint16, c, lo, hi int16) {
		if !HasAVX2 {
			t.Skip("no AVX2: the int16 compares have no kernel on this CPU")
		}
		o, l := int(off%32), int(n)%(2*TileSize+41)
		x := make([]int16, o+l)[o:]
		for i := range x {
			switch {
			case i%17 == 0:
				x[i] = math.MinInt16
			case i%19 == 0:
				x[i] = math.MaxInt16
			case i%23 == 0:
				x[i] = c
			case len(data) > 1:
				x[i] = int16(data[i%len(data)]) | int16(data[(i+1)%len(data)])<<8 + int16(i)
			}
		}
		got, want := make([]byte, o+l+32)[o:], make([]byte, l+32)
		check := func(what string, a, b int16) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s %d %d, off %d, %d lanes: %v, want %v", what, a, b, o, l, got, want)
			}
		}
		for _, k := range []int16{c, math.MinInt16, math.MinInt16 + 1, math.MaxInt16} {
			for op := LT; op <= NE; op++ {
				Fill(got, 0xaa)
				Fill(want, 0xaa)
				CmpConstI16(op, x, k, got)
				CmpConstU(op, x, k, want)
				check("op, constant", int16(op), k)
			}
		}
		for _, r := range [][2]int16{{lo, hi}, {hi, lo}, {1, 0}, {math.MinInt16, math.MaxInt16}, {math.MaxInt16, math.MinInt16}, {c, c}} {
			Fill(got, 0xaa)
			Fill(want, 0xaa)
			CmpBetweenI16(x, r[0], r[1], got)
			CmpConstBetweenU(x, r[0], r[1], want)
			check("between", r[0], r[1])
		}
	})
}
